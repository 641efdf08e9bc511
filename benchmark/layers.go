package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qbs"
	"qbs/internal/analysis"
	"qbs/internal/replica"
	"qbs/internal/server"
	"qbs/internal/traverse"
)

// The traced run measures single layers from outside, by timing calls
// into their public functions from this file. It builds every index
// kind over the workload's graph — core, dcore (over the symmetric arcs
// of an undirected graph, or the workload's digraph), dynamic, store —
// so that every layer has a number on every workload: the layers on the
// workload's serving path explain its end-to-end metrics, the others
// are the same probes on a different graph shape.
const (
	tracedOps    = 2000 // reads replayed one at a time with spans
	tracedWrites = 100  // writes per write probe
	landmarks    = 20   // qbs-server's default |R|
)

// span is one timed call, recorded in memory and dumped at the end.
type span struct {
	Op     int              `json:"op"` // spans of one replayed request share it
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // the call that would have caused this one; -1 for client.rtt
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"` // since the traced run began
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer records spans when on; off, the same code path runs without
// recording, which prices the instrument (trace.overhead_frac).
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(op, parent int, name string) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t.on {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// durations returns the length of every span called name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// sink is an in-memory http.ResponseWriter that keeps only the size.
type sink struct {
	header http.Header
	status int
	bytes  int
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	s.bytes += len(b)
	return len(b), nil
}
func (s *sink) reset() {
	clear(s.header)
	s.status, s.bytes = 0, 0
}

func newRequest(o op) *http.Request {
	return httptest.NewRequest(o.method(), o.path(0), bytes.NewReader(o.payload()))
}

// undirected is the query surface core-backed indexes share
// (*qbs.Index and *qbs.DynamicIndex).
type undirected interface {
	QueryWithStats(u, v qbs.V) (*qbs.SPG, qbs.QueryStats)
	Distance(u, v qbs.V) int32
}

// timeEach times f(i) for i in [0, n) and returns the nanoseconds.
func timeEach(n int, f func(i int)) []int64 {
	out := make([]int64, n)
	for i := range n {
		start := time.Now()
		f(i)
		out[i] = int64(time.Since(start))
	}
	return out
}

func us(ns float64) float64 { return ns / 1e3 }

// layerProbe carries the state of one traced run.
type layerProbe struct {
	w    workload
	lg   *localGraph
	tp   *topology
	seed int64
	dir  string
	m    *metrics
	tr   tracer

	ix   *qbs.Index
	dix  *qbs.DiIndex
	dyn  *qbs.DynamicIndex // unlogged
	spgs []op              // the /spg requests of the sample
}

// runLayers executes the traced run against the live topology tp and
// adds every per-layer metric that is not read from the live phases.
func runLayers(w workload, tp *topology, lg *localGraph, seed int64, m *metrics, traceOut string) error {
	dir, err := os.MkdirTemp(workDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &layerProbe{w: w, lg: lg, tp: tp, seed: seed, dir: dir, m: m}
	for _, step := range []func() error{p.build, p.writes, p.replay, p.kernels, p.storeAndReplica, p.routerHop, p.sweep} {
		if err := step(); err != nil {
			return err
		}
	}
	if traceOut == "" {
		traceOut = filepath.Join(workDir, "trace-"+w.name+".json")
	}
	data, err := json.Marshal(p.tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(traceOut, data, 0o644)
}

// build constructs the three in-memory index kinds over the graph.
func (p *layerProbe) build() error {
	p.m.set("datasets.generate_s", "s", p.lg.generate.Seconds())
	p.m.set("graph.vertices", "count", float64(p.lg.n))
	p.m.set("graph.edges", "count", float64(p.lg.numEdges()))

	dg := p.lg.dg
	if dg == nil {
		dg = qbs.AsDirected(p.lg.g)
	}
	var err error
	start := time.Now()
	if p.ix, err = qbs.BuildIndex(p.lg.g, qbs.Options{NumLandmarks: landmarks}); err != nil {
		return err
	}
	p.m.set("core.build_s", "s", time.Since(start).Seconds())
	p.m.set("core.labels_bytes", "B", float64(p.ix.SizeLabelsBytes()))

	start = time.Now()
	if p.dix, err = qbs.BuildDiIndex(dg, qbs.DiOptions{NumLandmarks: landmarks}); err != nil {
		return err
	}
	p.m.set("dcore.build_s", "s", time.Since(start).Seconds())

	p.dyn, err = qbs.BuildDynamicIndex(p.lg.g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: landmarks}})
	return err
}

// writes times the write path on the unlogged dynamic index: first
// ApplyEdge alone, then the same through the /edges handlers.
func (p *layerProbe) writes() error {
	muts := writeOps(p.lg, 2*tracedWrites, p.seed*16+5)
	var inserts, deletes []int64
	for _, o := range muts[:tracedWrites] {
		start := time.Now()
		_, err := p.dyn.ApplyEdge(o.u, o.v, o.kind == opInsert)
		d := int64(time.Since(start))
		if err != nil {
			return fmt.Errorf("dynamic apply {%d,%d}: %w", o.u, o.v, err)
		}
		if o.kind == opInsert {
			inserts = append(inserts, d)
		} else {
			deletes = append(deletes, d)
		}
	}
	p.m.set("dynamic.insert_p50_us", "us", us(percentile(inserts, 0.5)))
	p.m.set("dynamic.delete_p50_us", "us", us(percentile(deletes, 0.5)))

	h := server.NewMutable(p.dyn)
	out := &sink{header: http.Header{}}
	var handlerErr error
	edges := timeEach(tracedWrites, func(i int) {
		req := newRequest(muts[tracedWrites+i])
		out.reset()
		h.ServeHTTP(out, req)
		if out.status != http.StatusOK && handlerErr == nil {
			handlerErr = fmt.Errorf("in-process %s %s: status %d", req.Method, req.URL, out.status)
		}
	})
	p.m.set("server.edges_handler_p50_us", "us", us(percentile(edges, 0.5)))
	return handlerErr
}

// replay sends a fixed sample of the workload's reads one at a time, in
// three passes over the same requests: over the socket to the live
// server that answers reads (client.rtt), through the in-process handler
// of the same server kind (server.handler), and through the handler's
// work re-executed piece by piece (kernel.query, analysis.dag,
// server.serialize; kernel.distance for /distance). A span's parent is
// the call that would have caused it — rtt → handler → pieces — so a
// parent's self time is the residual that closes the budget:
// nethttp.residual = client.rtt − server.handler and server.unattributed
// = server.handler − kernel.query − analysis.dag − server.serialize.
// One pass per span kind, each over distinct pairs in the same order,
// leaves every call the cache state a stream of distinct queries leaves
// in the live server; re-running a pair's pieces right after its handler
// call would time them on data the handler had just pulled in.
func (p *layerProbe) replay() error {
	var h http.Handler
	var pieces func(op, parent int, u, v int32) int // returns the Distance calls made
	var distance func(u, v int32)
	switch {
	case p.w.directed:
		h = server.NewDirected(p.dix)
		pieces = p.diPieces
		distance = func(u, v int32) { p.dix.Distance(u, v) }
	case p.w.mutable:
		h = server.NewDynamicReadOnly(p.dyn)
		pieces = func(op, parent int, u, v int32) int { return p.pieces(p.dyn, op, parent, u, v) }
		distance = func(u, v int32) { p.dyn.Distance(u, v) }
	default:
		h = server.New(p.ix)
		pieces = func(op, parent int, u, v int32) int { return p.pieces(p.ix, op, parent, u, v) }
		distance = func(u, v int32) { p.ix.Distance(u, v) }
	}
	ops := readOps(p.w, p.lg, tracedOps, p.seed*16+6)
	reqs := make([]*http.Request, len(ops))
	for i, o := range ops {
		reqs[i] = newRequest(o)
		if o.kind == opSPG {
			p.spgs = append(p.spgs, o)
		}
	}
	out := &sink{header: http.Header{}}
	var respBytes []int64
	handlers := make([]int, len(ops)) // span id of each request's handler call
	handlerPass := func(parents []int) error {
		for i, o := range ops {
			handlers[i] = p.tr.begin(i, parents[i], "server.handler."+kindName(o.kind))
			out.reset()
			h.ServeHTTP(out, reqs[i])
			p.tr.end(handlers[i])
			if out.status != http.StatusOK {
				return fmt.Errorf("in-process GET %s: status %d", o.path(0), out.status)
			}
			if o.kind == opSPG && p.tr.on {
				respBytes = append(respBytes, int64(out.bytes))
			}
		}
		return nil
	}

	// Untraced first: the same pass with the tracer off is the warm-up
	// and the base of trace.overhead_frac.
	rtts := make([]int, len(ops))
	start := time.Now()
	if err := handlerPass(rtts); err != nil {
		return err
	}
	untracedPass := time.Since(start)

	p.tr = tracer{on: true, t0: time.Now()}
	live := dial(p.tp.backendURL)
	defer live.close()
	for i, o := range ops {
		rtts[i] = p.tr.begin(i, -1, "client.rtt."+kindName(o.kind))
		status, body, err := live.do("GET", o.path(0), nil)
		p.tr.end(rtts[i])
		if err != nil || !wellFormedRead(status, body) {
			return fmt.Errorf("traced GET %s: status %d err %v", o.path(0), status, err)
		}
	}
	start = time.Now()
	if err := handlerPass(rtts); err != nil {
		return err
	}
	tracedPass := time.Since(start)
	var distCalls []int64
	for i, o := range ops {
		if o.kind == opSPG {
			distCalls = append(distCalls, int64(pieces(i, handlers[i], o.u, o.v)))
			continue
		}
		id := p.tr.begin(i, handlers[i], "kernel.distance")
		distance(o.u, o.v)
		p.tr.end(id)
	}
	p.tr.on = false

	p50 := func(name string) float64 { return percentile(p.tr.durations(name), 0.5) }
	handler := p50("server.handler.spg")
	kernel, dag, ser := p50("kernel.query"), p50("analysis.dag"), p50("server.serialize")
	p.m.set("nethttp.residual_p50_us", "us", us(p50("client.rtt.spg")-handler))
	p.m.set("server.spg_handler_p50_us", "us", us(handler))
	p.m.set("server.distance_handler_p50_us", "us", us(p50("server.handler.distance")))
	p.m.set("server.kernel_p50_us", "us", us(kernel))
	p.m.set("server.serialize_p50_us", "us", us(ser))
	p.m.set("server.unattributed_p50_us", "us", us(handler-kernel-dag-ser))
	p.m.set("server.resp_bytes_avg", "B", mean(respBytes))
	p.m.set("analysis.dag_p50_us", "us", us(dag))
	p.m.set("analysis.distance_calls_per_spg", "count", mean(distCalls))
	p.m.set("trace.overhead_frac", "ratio", tracedPass.Seconds()/untracedPass.Seconds()-1)

	var switches, words []int64
	for _, s := range p.tr.spans {
		if s.Name == "kernel.query" {
			switches = append(switches, s.Counts["push_pull_switches"])
			words = append(words, s.Counts["frontier_words"])
		}
	}
	p.m.set("traverse.push_pull_switches_avg", "count", mean(switches))
	p.m.set("traverse.frontier_words_avg", "count", mean(words))

	allocs := func(kind opKind) float64 {
		var picked []*http.Request
		for i, o := range ops {
			if o.kind == kind {
				picked = append(picked, reqs[i])
			}
		}
		i := 0
		return testing.AllocsPerRun(len(picked)-1, func() {
			out.reset()
			h.ServeHTTP(out, picked[i%len(picked)])
			i++
		})
	}
	p.m.set("server.spg_handler_allocs", "count", allocs(opSPG))
	p.m.set("server.distance_handler_allocs", "count", allocs(opDistance))
	return nil
}

func kindName(k opKind) string {
	if k == opSPG {
		return "spg"
	}
	return "distance"
}

// pieces re-executes what handleSPG does after parsing, one span each:
// the kernel call, the path-count DAG with its Distance callback, and
// the JSON encoding of the filled response.
func (p *layerProbe) pieces(b undirected, op, parent int, u, v int32) (distCalls int) {
	id := p.tr.begin(op, parent, "kernel.query")
	spg, st := b.QueryWithStats(u, v)
	p.tr.end(id)
	p.tr.spans[id].Counts = map[string]int64{
		"sketch_ns": st.SketchNs, "expand_ns": st.ExpandNs, "extract_ns": st.ExtractNs,
		"arcs_scanned": st.ArcsScanned, "label_entries": st.LabelEntries,
		"frontier_words": st.FrontierWords, "push_pull_switches": st.PushPullSwitches,
	}
	resp := server.SPGResponse{Source: u, Target: v, ArcsScanned: st.ArcsScanned, Coverage: "some"}
	if spg.Dist == qbs.InfDist {
		resp.Disconnected = true
	} else {
		resp.Distance, resp.DTop = &spg.Dist, &st.DTop
		resp.Vertices = spg.Vertices()
		for _, e := range spg.Edges() {
			resp.Edges = append(resp.Edges, [2]int32{e.U, e.W})
		}
		id = p.tr.begin(op, parent, "analysis.dag")
		dag := analysis.BuildDAG(spg, func(x qbs.V) int32 {
			distCalls++
			return b.Distance(u, x)
		})
		resp.NumPaths, resp.NumPathsSaturated = dag.CountPaths()
		p.tr.end(id)
	}
	p.serialize(op, parent, &resp)
	return distCalls
}

// diPieces is pieces for handleDiSPG.
func (p *layerProbe) diPieces(op, parent int, u, v int32) (distCalls int) {
	id := p.tr.begin(op, parent, "kernel.query")
	spg, st := p.dix.QueryWithStats(u, v)
	p.tr.end(id)
	p.tr.spans[id].Counts = map[string]int64{
		"sketch_ns": st.SketchNs, "expand_ns": st.ExpandNs, "extract_ns": st.ExtractNs,
		"label_entries":  st.LabelEntries,
		"frontier_words": st.FrontierWords, "push_pull_switches": st.PushPullSwitches,
	}
	resp := server.SPGResponse{Source: u, Target: v, Directed: true, Coverage: "directed"}
	if spg.Dist == qbs.InfDist {
		resp.Disconnected = true
	} else {
		resp.Distance, resp.DTop = &spg.Dist, &st.DTop
		resp.Vertices = spg.Vertices()
		for _, a := range spg.Arcs() {
			resp.Edges = append(resp.Edges, [2]int32{a.From, a.To})
		}
		id = p.tr.begin(op, parent, "analysis.dag")
		resp.NumPaths, resp.NumPathsSaturated = analysis.CountDiPaths(spg, func(x qbs.V) int32 {
			distCalls++
			return p.dix.Distance(u, x)
		})
		p.tr.end(id)
	}
	p.serialize(op, parent, &resp)
	return distCalls
}

func (p *layerProbe) serialize(op, parent int, resp *server.SPGResponse) {
	id := p.tr.begin(op, parent, "server.serialize")
	_, _ = json.Marshal(resp) // the response holds only numbers, strings and slices of them
	p.tr.end(id)
}

// kernels times the warm kernels alone, on the /spg pairs of the sample:
// core on the undirected graph, dcore on the directed one, and the
// dynamic index after the probe's writes (its overlay cost over core).
func (p *layerProbe) kernels() error {
	n := len(p.spgs)
	pair := func(i int) (int32, int32) { o := p.spgs[i%n]; return o.u, o.v }

	var spg qbs.SPG
	coreQuery := func(i int) { u, v := pair(i); p.ix.QueryInto(&spg, u, v) }
	timeEach(n, coreQuery) // warm the searcher pool and the result buffer
	q := timeEach(n, coreQuery)
	p.m.set("core.query_p50_us", "us", us(percentile(q, 0.5)))
	p.m.set("core.query_p99_us", "us", us(percentile(q, 0.99)))
	i := 0
	p.m.set("core.query_allocs", "count", testing.AllocsPerRun(n-1, func() { coreQuery(i); i++ }))
	p.m.set("core.distance_p50_us", "us", us(percentile(
		timeEach(n, func(i int) { u, v := pair(i); p.ix.Distance(u, v) }), 0.5)))

	var sketch, expand, extract, arcs, entries, none []int64
	for i := range n {
		u, v := pair(i)
		_, st := p.ix.QueryWithStats(u, v)
		sketch = append(sketch, st.SketchNs)
		expand = append(expand, st.ExpandNs)
		extract = append(extract, st.ExtractNs)
		arcs = append(arcs, st.ArcsScanned)
		entries = append(entries, st.LabelEntries)
		if st.Coverage == qbs.CoverageNone {
			none = append(none, 1)
		} else {
			none = append(none, 0)
		}
	}
	p.m.set("core.sketch_ns_avg", "ns", mean(sketch))
	p.m.set("core.expand_ns_avg", "ns", mean(expand))
	p.m.set("core.extract_ns_avg", "ns", mean(extract))
	p.m.set("core.arcs_scanned_avg", "count", mean(arcs))
	p.m.set("core.label_entries_avg", "count", mean(entries))
	p.m.set("core.coverage_none_frac", "ratio", mean(none))

	var dspg qbs.DiSPG
	diQuery := func(i int) { u, v := pair(i); p.dix.QueryInto(&dspg, u, v) }
	timeEach(n, diQuery)
	p.m.set("dcore.query_p50_us", "us", us(percentile(timeEach(n, diQuery), 0.5)))
	i = 0
	p.m.set("dcore.query_allocs", "count", testing.AllocsPerRun(n-1, func() { diQuery(i); i++ }))
	p.m.set("dcore.distance_p50_us", "us", us(percentile(
		timeEach(n, func(i int) { u, v := pair(i); p.dix.Distance(u, v) }), 0.5)))
	entries = entries[:0]
	for i := range n {
		u, v := pair(i)
		_, st := p.dix.QueryWithStats(u, v)
		entries = append(entries, st.LabelEntries)
	}
	p.m.set("dcore.label_entries_avg", "count", mean(entries))

	dynQuery := func(i int) { u, v := pair(i); p.dyn.QueryInto(&spg, u, v) }
	timeEach(n, dynQuery)
	p.m.set("dynamic.query_p50_us", "us", us(percentile(timeEach(n, dynQuery), 0.5)))
	return nil
}

// storeAndReplica times the durable layer on a scratch store — create,
// reopen, WAL append with an fsync per record (the server's default,
// -sync-every 1), replay on reopen — and a replica's bootstrap from it.
func (p *layerProbe) storeAndReplica() error {
	dir := filepath.Join(p.dir, "store")
	opts := qbs.StoreOptions{Index: qbs.Options{NumLandmarks: landmarks}, MMap: true}
	start := time.Now()
	st, err := qbs.CreateStore(dir, p.lg.g, opts)
	if err != nil {
		return err
	}
	p.m.set("store.create_s", "s", time.Since(start).Seconds())
	if err := st.Close(); err != nil {
		return err
	}
	p.m.set("store.snapshot_bytes", "B", float64(globSize(filepath.Join(dir, "snapshot-*"))))

	start = time.Now()
	if st, err = qbs.OpenStore(dir, opts); err != nil {
		return err
	}
	open := time.Since(start)
	p.m.set("store.open_s", "s", open.Seconds())

	muts := writeOps(p.lg, tracedWrites, p.seed*16+5)
	walBefore := globSize(filepath.Join(dir, "wal", "*"))
	epoch := st.Epoch()
	var logErr error
	appends := timeEach(len(muts), func(i int) {
		o := muts[i]
		if err := st.Store().LogUpdate(epoch+uint64(i)+1, o.u, o.v, o.kind == opInsert); err != nil && logErr == nil {
			logErr = err
		}
	})
	if logErr != nil {
		return logErr
	}
	p.m.set("store.log_update_p50_us", "us", us(percentile(appends, 0.5)))
	p.m.set("store.wal_bytes_per_write", "B",
		float64(globSize(filepath.Join(dir, "wal", "*"))-walBefore)/float64(len(muts)))
	if err := st.Close(); err != nil {
		return err
	}

	start = time.Now()
	if st, err = qbs.OpenStore(dir, opts); err != nil {
		return err
	}
	replay := time.Since(start) - open
	if got, want := st.Epoch(), epoch+uint64(len(muts)); got != want {
		return fmt.Errorf("store replay reached epoch %d, want %d", got, want)
	}
	p.m.set("store.replay_us_per_record", "us", us(float64(replay))/float64(len(muts)))
	defer st.Close()

	primary := replica.NewPrimary(st.Store(), replica.PrimaryOptions{})
	defer primary.Close()
	feed := httptest.NewServer(primary)
	defer feed.Close()
	start = time.Now()
	rep, err := replica.Start(feed.URL, replica.Options{Dir: filepath.Join(p.dir, "replica"), MMap: true})
	if err != nil {
		return err
	}
	p.m.set("replica.bootstrap_s", "s", time.Since(start).Seconds())
	rep.Stop()
	return nil
}

func globSize(pattern string) int64 {
	names, _ := filepath.Glob(pattern)
	var total int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// routerHop puts an in-process router in front of the live server that
// answers reads and sends the same requests both ways.
func (p *layerProbe) routerHop() error {
	primaryURL := p.tp.primaryURL
	if primaryURL == "" {
		primaryURL = p.tp.backendURL
	}
	rt := replica.NewRouter(primaryURL, []string{p.tp.backendURL}, replica.RouterOptions{FleetInterval: -1})
	defer rt.Stop()
	front := httptest.NewServer(rt)
	defer front.Close()

	via, direct := dial(front.URL), dial(p.tp.backendURL)
	defer via.close()
	defer direct.close()
	var viaNs, directNs []int64
	for _, o := range p.spgs[:min(len(p.spgs), 500)] {
		for _, leg := range []struct {
			c   *conn
			out *[]int64
		}{{via, &viaNs}, {direct, &directNs}} {
			start := time.Now()
			status, body, err := leg.c.do("GET", o.path(0), nil)
			*leg.out = append(*leg.out, int64(time.Since(start)))
			if err != nil || !wellFormedRead(status, body) {
				return fmt.Errorf("router probe GET %s: status %d err %v", o.path(0), status, err)
			}
		}
	}
	p.m.set("replica.router_hop_p50_us", "us", us(percentile(viaNs, 0.5)-percentile(directNs, 0.5)))

	out := &sink{header: http.Header{}}
	reqs := make([]*http.Request, min(len(p.spgs), 200))
	for i := range reqs {
		reqs[i] = newRequest(p.spgs[i])
	}
	i := 0
	p.m.set("replica.router_handler_allocs", "count", testing.AllocsPerRun(len(reqs)-1, func() {
		out.reset()
		rt.ServeHTTP(out, reqs[i%len(reqs)])
		i++
	}))
	return nil
}

// sweep times one 64-root MultiBFS pass over the workload's graph, the
// unit of work of index construction and of a rebuilt label column.
func (p *layerProbe) sweep() error {
	eng := traverse.NewMultiBFS(p.lg.n)
	noop := func(qbs.V, int32, uint64, uint64) {}
	roots := p.lg.g.TopDegreeVertices(traverse.MaxSources)
	run := func() error { return eng.Run(p.lg.g, nil, nil, roots, 254, noop) }
	if dg := p.lg.dg; dg != nil {
		roots = dg.TotalDegreeOrder()
		roots = roots[:min(len(roots), traverse.MaxSources)]
		run = func() error { return eng.RunDirected(dg.OutView(), dg.InView(), nil, nil, roots, 254, noop) }
	}
	var runErr error
	sweeps := timeEach(3, func(int) {
		if err := run(); err != nil {
			runErr = err
		}
	})
	p.m.set("traverse.multibfs_sweep_ms", "ms", percentile(sweeps, 0.5)/1e6)
	return runErr
}
