// Package server exposes a QbS index over HTTP with a small JSON API —
// the deployment shape a production user of the library would run:
// build (or load) the index once, then serve shortest-path-graph
// queries at microsecond latency.
//
// A server fronts either an immutable qbs.Index (New) or a live-mutable
// qbs.DynamicIndex (NewMutable). In mutable mode the graph accepts edge
// writes: each write repairs the index incrementally and publishes a new
// snapshot epoch, while in-flight reads keep answering against the
// snapshot they resolved — readers never block on writers.
//
// Read endpoints (both modes):
//
//	GET /spg?u=<id>&v=<id>        the shortest path graph of the pair
//	GET /distance?u=<id>&v=<id>   just the distance
//	GET /sketch?u=<id>&v=<id>     the query sketch (d⊤, minimizing pairs)
//	GET /paths?u=<id>&v=<id>&limit=<n>  enumerated shortest paths
//	GET /stats                    index and graph statistics
//	GET /metrics                  Prometheus text: request/error counters,
//	                              per-endpoint stage latencies, epoch,
//	                              replication lag
//	GET /healthz                  liveness
//
// /spg and /paths run one index search per request. Vertices, depths and
// num_shortest_paths are derived from the answer's own edges
// (internal/analysis needs no distance oracle), so a reply describes
// exactly one graph state even while writes land.
//
// On dynamic servers the query endpoints accept &min_epoch=<n>: the
// read is answered only once the index has published at least that
// epoch, and a server still behind responds 503 with a Retry-After
// header — the consistency hook read replicas and the query router use
// for read-your-writes.
//
// Write endpoints (mutable mode only; 404 on an immutable server):
//
//	POST /edges                   body {"u":<id>,"v":<id>} — insert edge
//	DELETE /edges?u=<id>&v=<id>   remove edge
//	GET /epoch                    current snapshot epoch (any dynamic server)
//	POST /checkpoint              persist a snapshot (durable stores only)
//
// Writes respond with {"applied":bool,"epoch":N,"edges":E}; applied is
// false for idempotent no-ops (inserting an existing edge, deleting an
// absent one), which do not advance the epoch. A write that would push
// the graph past the labelling's 254-hop representation limit is
// rejected with 422 and leaves the index unchanged. Requests to /edges
// with any other method return 405 with an Allow header. POST
// /checkpoint responds {"epoch":N} once the snapshot is on disk; on a
// mutable server without a durable store it returns 409.
//
// A third mode, NewDynamicReadOnly, serves a dynamic index (typically
// one recovered from a data directory) with the write endpoints
// withheld — the restart shape of a read replica.
//
// New over an index of a directed graph serves it through the same
// handlers: /spg answers SPG(u → v) with oriented arcs, /distance the
// directed distance, /sketch the directed sketch, and /stats the
// directed index statistics; /paths and the write endpoints do not
// exist on a directed server. Responses carry "directed": true so
// clients can tell the modes apart.
//
// # Serving loop
//
// qbs-server's listeners, of every tier, run Loop (serve.go) rather
// than http.Server: one goroutine per connection waits for a request's
// first byte under the idle timeout, reads its head under the header
// timeout and a header-byte cap, runs the handler into a buffered
// ResponseWriter, and writes the status line, headers and a reply under
// 32 KB in one write.
//
// The loop reads the head itself (head.go) when it is all in the
// connection's buffer and is a request it reads exactly as
// http.ReadRequest would: a request line "<method> /<path>[?<query>]
// HTTP/1.x" whose path needs no unescaping, header fields each on one
// line, and no body declared (no Transfer-Encoding, a Content-Length of
// 0 at most). It fills one http.Request, url.URL and http.Header per
// connection, reset for each request, whose context is set once per
// loop, and every string of them is a view of one copy of the head, in
// a buffer the connection keeps and its next head overwrites. Any
// other head — a body, an absolute-form or escaped URI, folded or
// malformed lines, a second Host, a Pragma, a head still arriving — is
// read by http.ReadRequest from the same bytes, into a request of its
// own, so body framing, chunked bodies, 100-continue and every refusal
// stay net/http's; FuzzHeadParse holds the two readers equal. Because
// the request, its URL and its header are the connection's, a handler
// may not keep r, r.URL, r.Header or the reply's header values after it
// returns (what it keeps must be copied, or taken from a request that
// carries a body, which is its own): a retained trace copies its ID and
// attributes, a journalled event its trace ID and values. The read
// endpoints read their arguments from URL.RawQuery in place
// (url.ParseQuery only for an escaped query), and the middleware hands
// each handler its span buffer as an argument and reads the status off
// the loop's writer. A trace ID the middleware mints and /spg's
// Content-Length are written into buffers the connection keeps, so a
// warm /distance or /spg allocates nothing end to end. Reply headers
// the handlers set take value slots the connection keeps, and are
// written in the order of their names.
//
// The loop keeps net/http's timeouts, the 431 past the header cap, the
// 400 for an HTTP/1.1 request without Host, the keep-alive rules,
// pipelining, the read-off of up to 256 KB of an unread body,
// 100-continue and 417, Date (formatted once a second) and sniffed
// Content-Type, framing (a Content-Length the handler did not set only
// on a reply of at most 2 KB, else chunked), HEAD/204/304 without a
// body, panic recovery and the graceful drain. It gives up what needs a
// second goroutine per request, net/http's background read: a request's
// context is not cancelled when the client hangs up, only when a
// shutdown's drain runs out. A request other than GET or HEAD starts
// one empty goroutine: that wakes a thread to wait on the network poller
// while the write's handler may hold its own in the kernel (the WAL's
// fsync), so reads on other connections are not held until it ends. It
// also gives up HTTP/2, TLS, Hijack and Flush, which no handler here
// uses. Two corners differ from net/http: a request with an
// absolute-form URI and no Host header is served (net/http answers
// 400), and a header set after WriteHeader still reaches a reply that
// has not gone out.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"qbs"
	"qbs/internal/analysis"
	"qbs/internal/obs"
)

// backend is the query surface shared by the immutable and mutable
// index types.
type backend interface {
	QueryIntoStats(dst *qbs.SPG, u, v qbs.V) qbs.QueryStats
	DistanceStats(u, v qbs.V) qbs.QueryStats
	Sketch(u, v qbs.V) *qbs.Sketch
	Landmarks() []qbs.V
	NumVertices() int
	NumEdges() int
	SizeLabelsBytes() int64
	SizeDeltaBytes() int64
}

// staticBackend adapts the immutable index to the backend interface; a
// directed graph's edge count is its arc count.
type staticBackend struct{ *qbs.Index }

func (b staticBackend) NumVertices() int { return b.Graph().NumVertices() }
func (b staticBackend) NumEdges() int    { return b.Graph().NumEdges() }

// Server handles the HTTP API over one index.
type Server struct {
	b        backend
	static   *qbs.Index        // the immutable index behind b; nil in dynamic modes
	dyn      *qbs.DynamicIndex // nil in immutable modes
	directed bool              // b answers over a directed graph
	writable bool              // write endpoints exposed (NewMutable)
	mux      *http.ServeMux

	// /metrics is the Prometheus text rendering of the server's own
	// registry, which keeps per-endpoint series isolated per instance,
	// with extra registries (a replica's apply/lag series) and the
	// process-wide obs.Default stacked onto it.
	reg   *obs.Registry
	extra []*obs.Registry
	// The tracer (span recording, tail sampling, the slow-query log read
	// off its retained traces) and event journal: what obs.DebugMux
	// serves under /debug/.
	src   obs.DebugSources
	evErr *obs.EventDef            // http request_error events (5xx)
	eps   map[string]*endpointView // registry-backed per-endpoint views

	// Query-path instrumentation: each query endpoint's per-stage
	// histograms, fed as each stage span is recorded, and engine counters
	// aggregated from the searcher's QueryStats out-param.
	spgStages, distanceStages, pathsStages *stageSeries
	engArcs                                *obs.Counter
	engEntries                             *obs.Counter
}

// stageSeries is one endpoint's qbs_query_stage_ns histograms, labelled
// endpoint and stage, indexed by stage.
type stageSeries [obs.NumStages]*obs.Histogram

// endpointView holds one endpoint's registry-backed series.
type endpointView struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// AddRegistry stacks an additional registry onto the server's
// Prometheus exposition — how a replica's apply/lag series appear on
// the mux that serves its queries.
func (s *Server) AddRegistry(r *obs.Registry) { s.extra = append(s.extra, r) }

// SetSlowLogThreshold adjusts the slow-query threshold, which is the
// tracer's tail-sampling bar: the slow-query log lists the retained
// traces of the requests at least this slow.
func (s *Server) SetSlowLogThreshold(d time.Duration) { s.src.Tracer.SetSlowThreshold(d) }

// Tracer returns the server's span tracer.
func (s *Server) Tracer() *obs.Tracer { return s.src.Tracer }

// SetTracer replaces the span tracer (obs.DefaultTracer by default) —
// how tests and multi-server processes keep span stores isolated.
func (s *Server) SetTracer(t *obs.Tracer) {
	if t != nil {
		s.src.Tracer = t
	}
}

// Journal returns the server's event journal.
func (s *Server) Journal() *obs.Journal { return s.src.Journal }

// SetJournal replaces the event journal (obs.DefaultJournal by
// default) — how tests and multi-tier processes keep each tier's
// events attributable. Call before serving.
func (s *Server) SetJournal(j *obs.Journal) {
	if j != nil {
		s.src.Journal = j
		s.evErr = j.Def("http", "request_error", obs.LevelError)
	}
}

// ReplicationStatus is the lag snapshot a read replica exposes through
// /metrics: the primary epoch it last observed, its own applied epoch,
// and the shipped-record backlog in bytes.
type ReplicationStatus struct {
	PrimaryEpoch uint64
	Epoch        uint64
	LagBytes     int64
}

// SetReplicationStatus attaches a replication lag provider: /metrics
// then reports lag in epochs and bytes alongside the query counters.
// Lag saturates at zero: a replica momentarily ahead of the tip it last
// observed reports 0, never an underflowed huge number.
func (s *Server) SetReplicationStatus(fn func() ReplicationStatus) {
	s.reg.GaugeFunc("qbs_replica_primary_epoch", "", func() float64 {
		return float64(fn().PrimaryEpoch)
	})
	s.reg.GaugeFunc("qbs_replica_lag_epochs", "", func() float64 {
		st := fn()
		if st.PrimaryEpoch > st.Epoch {
			return float64(st.PrimaryEpoch - st.Epoch)
		}
		return 0
	})
	s.reg.GaugeFunc("qbs_replica_lag_bytes", "", func() float64 {
		return float64(fn().LagBytes)
	})
}

// maxWriteBody bounds the request body of every write endpoint. The
// legitimate bodies are tens of bytes; anything larger is a mistake or
// an attack, rejected with 413 before it can balloon server memory.
const maxWriteBody = 64 << 10

// tracedHandler is a handler behind the instrumentation middleware: tb
// is the request's span buffer, which the handler records its stages
// into.
type tracedHandler func(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf)

// handle registers h under pattern behind the one instrumentation
// middleware: request/error counters, latency histogram, trace intake
// (obs.Tracer.BeginRequest, its ID echoed on the reply) and span
// recording with tail sampling. name is the endpoint label of the
// /metrics series (the route path without the method). Under the loop
// the middleware allocates nothing: the loop's writer keeps the status,
// and the span buffer is handed to h, not put in a context.
func (s *Server) handle(pattern, name string, h tracedHandler) {
	ep, ok := s.eps[name]
	if !ok {
		lbl := `endpoint="` + obs.EscapeLabel(name) + `"`
		ep = &endpointView{
			requests: s.reg.Counter("qbs_http_requests_total", lbl),
			errors:   s.reg.Counter("qbs_http_errors_total", lbl),
			latency:  s.reg.Histogram("qbs_http_request_ns", lbl),
		}
		s.eps[name] = ep
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		tracer := s.src.Tracer
		// On the loop's writer a minted trace ID is written into the
		// connection's buffer, which outlives the TraceBuf: the reply's
		// headers go out after Finish has recycled it.
		rw, loop := w.(*response)
		var ids *obs.TraceIDBuf
		if loop {
			ids = &rw.traceID
		}
		tb := tracer.BeginRequest(name, r, ids)
		root := tb.Root() // its span times the request
		setHeader(w, obs.TraceHeader, tb.TraceID)
		var status int
		if loop {
			h(rw, r, tb)
			status = rw.statusSent()
		} else {
			sw := &obs.StatusWriter{ResponseWriter: w}
			h(sw, r, tb)
			status = sw.Status()
		}
		root.End()
		ep.requests.Inc()
		if status >= 400 {
			ep.errors.Inc()
		}
		ep.latency.Observe(root.Dur)
		root.SetInt("status", int64(status))
		if status >= 500 {
			// 5xx responses journal an error-level event carrying the
			// request's trace ID, so /debug/logs lines join the
			// /debug/traces tree of the same incident.
			s.evErr.EmitTrace(tb.TraceID, obs.Str("endpoint", name), obs.Int("status", int64(status)))
			root.Fail()
		}
		tracer.Finish(tb)
	})
}

// New creates a read-only server over an immutable index. Over a
// directed graph the read endpoints answer directed semantics: /spg is
// SPG(u → v) with oriented arcs, /distance is d(u → v) (generally
// asymmetric), /sketch the directed sketch, and /paths is not served.
func New(index *qbs.Index) *Server {
	s := &Server{b: staticBackend{index}, static: index, directed: index.Graph().Directed()}
	s.routes()
	return s
}

// NewMutable creates a read/write server over a dynamic index. If the
// index is backed by a durable store (qbs.OpenStore/CreateStore), POST
// /checkpoint is exposed as well.
func NewMutable(index *qbs.DynamicIndex) *Server {
	s := &Server{b: index, dyn: index, writable: true}
	s.routes()
	return s
}

// NewDynamicReadOnly serves a dynamic index without its write
// endpoints — e.g. an index recovered from a data directory by a
// process that should only answer queries. Read-only observability
// (GET /epoch, the dynamic /stats section) stays available so an
// operator can confirm what epoch the replica recovered to.
func NewDynamicReadOnly(index *qbs.DynamicIndex) *Server {
	s := &Server{b: index, dyn: index}
	s.routes()
	return s
}

// Deprecated: kept for benchmark/, which this round may not edit. Use New.
func NewDirected(index *qbs.Index) *Server { return New(index) }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.reg = obs.NewRegistry()
	s.src = obs.DebugSources{
		Tracer:  obs.DefaultTracer,
		Journal: obs.DefaultJournal,
	}
	s.evErr = s.src.Journal.Def("http", "request_error", obs.LevelError)
	s.eps = map[string]*endpointView{}
	s.spgStages = s.stageSeries("/spg")
	s.distanceStages = s.stageSeries("/distance")
	if !s.directed {
		s.pathsStages = s.stageSeries("/paths")
	}
	s.engArcs = s.reg.Counter("qbs_query_arcs_scanned_total", "")
	s.engEntries = s.reg.Counter("qbs_query_label_entries_total", "")
	if s.dyn != nil {
		dyn := s.dyn
		s.reg.GaugeFunc("qbs_epoch", "", func() float64 { return float64(dyn.Epoch()) })
	}
	healthz := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}
	// LB probes: HEAD answers 200 with no body rather than falling
	// through to 405. (The GET patterns below would match HEAD too, but
	// their bodies would be computed just to be discarded.)
	headOK := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}
	s.mux.HandleFunc("HEAD /metrics", headOK)
	s.mux.HandleFunc("HEAD /healthz", headOK)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", healthz)
	s.mux.Handle("/debug/", obs.DebugMux(&s.src))
	s.handle("GET /spg", "/spg", s.handleSPG)
	s.handle("GET /distance", "/distance", s.handleDistance)
	s.handle("GET /sketch", "/sketch", s.handleSketch)
	if !s.directed {
		s.handle("GET /paths", "/paths", s.handlePaths)
	}
	s.handle("GET /stats", "/stats", s.handleStats)
	if s.dyn != nil {
		s.handle("GET /epoch", "/epoch", s.handleEpoch)
	}
	if s.writable {
		s.handle("POST /edges", "/edges", s.handleAddEdge)
		s.handle("DELETE /edges", "/edges", s.handleRemoveEdge)
		// Any other method on /edges is answered explicitly with 405 +
		// Allow rather than falling through to a 404/400.
		s.mux.HandleFunc("/edges", s.handleEdgesMethodNotAllowed)
		s.handle("POST /checkpoint", "/checkpoint", s.handleCheckpoint)
	}
}

// handleMetrics renders the server's registry, the extra registries
// and the process-wide one as Prometheus text.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	regs := make([]*obs.Registry, 0, len(s.extra)+2)
	regs = append(regs, s.reg)
	regs = append(regs, s.extra...)
	regs = append(regs, obs.Default)
	_ = obs.WritePrometheus(w, regs...)
}

// stageSeries registers the stage histograms of one endpoint.
func (s *Server) stageSeries(endpoint string) *stageSeries {
	ss := new(stageSeries)
	for i := range ss {
		ss[i] = s.reg.Histogram("qbs_query_stage_ns",
			`endpoint="`+obs.EscapeLabel(endpoint)+`",stage="`+obs.Stage(i).String()+`"`)
	}
	return ss
}

// recordStage records one measured stage of the request: into the
// endpoint's histogram of the stage and as a child span of the request.
func (ss *stageSeries) recordStage(tb *obs.TraceBuf, stage obs.Stage, start time.Time, dur time.Duration) *obs.Span {
	ss[stage].ObserveNs(int64(dur))
	return tb.AddSpan(stage.SpanName(), start, dur)
}

// endParse closes the parse stage: request start — the root span's
// start, stamped by the middleware just before the handler — through
// argument validation. It returns the moment the stage ended, which is
// when the index search starts.
func (ss *stageSeries) endParse(tb *obs.TraceBuf) time.Time {
	now := time.Now()
	start := tb.Root().Start
	ss.recordStage(tb, obs.StageParse, start, now.Sub(start))
	return now
}

// recordQuery folds one search's stats — of an index of either kind, an
// answer's or a distance's — into the engine counters and the request's
// trace: query identity on the root span, the stages of the search laid
// end to end from start, when it began, each engine counter on the stage
// that ran it up. A distance extracts nothing and records no extract
// stage.
func (s *Server) recordQuery(ss *stageSeries, tb *obs.TraceBuf, start time.Time, u, v qbs.V, st qbs.QueryStats, extracted bool) {
	s.engArcs.Add(st.ArcsScanned)
	s.engEntries.Add(st.LabelEntries)
	root := tb.Root()
	root.SetInt("u", int64(u))
	root.SetInt("v", int64(v))
	root.SetInt("dist", int64(st.Dist))
	sketch, expand, extract := time.Duration(st.SketchNs), time.Duration(st.ExpandNs), time.Duration(st.ExtractNs)
	ss.recordStage(tb, obs.StageSketch, start, sketch).SetInt("label_entries", st.LabelEntries)
	ss.recordStage(tb, obs.StageExpand, start.Add(sketch), expand).SetInt("arcs_scanned", st.ArcsScanned)
	if extracted {
		ss.recordStage(tb, obs.StageExtract, start.Add(sketch+expand), extract)
	}
}

func (s *Server) handleEdgesMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", "POST, DELETE")
	writeJSON(w, http.StatusMethodNotAllowed, errorBody{
		Error: fmt.Sprintf("method %s not allowed on /edges (allowed: POST, DELETE)", r.Method),
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) parseVertex(w http.ResponseWriter, name, raw string) (qbs.V, bool) {
	if raw == "" {
		// Distinguish an absent parameter from a malformed one — the
		// generic message below would report the confusing `got ""`.
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("missing required parameter %q", name),
		})
		return 0, false
	}
	id, err := strconv.Atoi(raw)
	if err != nil || id < 0 || id >= s.b.NumVertices() {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("parameter %q must be a vertex id in [0,%d), got %q",
				name, s.b.NumVertices(), raw),
		})
		return 0, false
	}
	return qbs.V(id), true
}

// queryGet returns url.ParseQuery(q).Get(key) for a non-empty key,
// without building the map: a query holding no escape ('%' or '+') is
// read in place, any other goes through url.ParseQuery.
func queryGet(q, key string) string {
	if strings.ContainsAny(q, "%+") {
		vs, _ := url.ParseQuery(q)
		return vs.Get(key)
	}
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			continue // url.ParseQuery drops the pair
		}
		if k, v, _ := strings.Cut(pair, "="); k == key {
			return v
		}
	}
	return ""
}

// pair parses the u and v parameters out of q, the request's raw query
// string, which every read handler reads in place.
func (s *Server) pair(w http.ResponseWriter, q string) (u, v qbs.V, ok bool) {
	u, ok = s.parseVertex(w, "u", queryGet(q, "u"))
	if !ok {
		return
	}
	v, ok = s.parseVertex(w, "v", queryGet(q, "v"))
	return
}

// freshEnough enforces the min_epoch read-your-writes contract: a read
// carrying min_epoch=N is only answered once the index has published
// epoch N; a replica still behind answers 503 with Retry-After so
// clients (and the query router) can go elsewhere. The parameter is
// validated on every server; an immutable index has no epoch to wait
// for and is always fresh enough. Epochs are monotonic, so a snapshot
// resolved after this check is at least as fresh as the epoch observed
// here.
func (s *Server) freshEnough(w http.ResponseWriter, q string) bool {
	raw := queryGet(q, "min_epoch")
	if raw == "" {
		return true
	}
	min, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("parameter \"min_epoch\" must be a non-negative integer, got %q", raw),
		})
		return false
	}
	if s.dyn == nil {
		return true
	}
	epoch := s.dyn.Epoch()
	if epoch >= min {
		return true
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Qbs-Epoch", strconv.FormatUint(epoch, 10))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error: fmt.Sprintf("index at epoch %d, behind requested min_epoch %d", epoch, min),
	})
	return false
}

// boundBody rejects oversized write-request bodies with 413 and caps
// what any handler can read from the rest via http.MaxBytesReader.
func (s *Server) boundBody(w http.ResponseWriter, r *http.Request) bool {
	if r.ContentLength > maxWriteBody {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
			Error: fmt.Sprintf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, maxWriteBody),
		})
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxWriteBody)
	return true
}

// drainBounded is boundBody for handlers that ignore their request
// body (DELETE /edges, POST /checkpoint): the body is read off and
// discarded up to the limit, so a chunked upload that carries no
// Content-Length is also caught and answered 413 — without this, a
// bound the handler never reads would never trip.
func (s *Server) drainBounded(w http.ResponseWriter, r *http.Request) bool {
	if !s.boundBody(w, r) {
		return false
	}
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("request body exceeds the %d-byte limit", maxWriteBody),
			})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "could not read request body"})
		return false
	}
	return true
}

// SPGResponse is the JSON body of /spg.
type SPGResponse struct {
	Source   int32      `json:"source"`
	Target   int32      `json:"target"`
	Distance *int32     `json:"distance"` // null when disconnected
	Vertices []int32    `json:"vertices"`
	Edges    [][2]int32 `json:"edges"`
	// NumPaths saturates at MaxInt64 (NumPathsSaturated true): the true
	// count then exceeds int64 — it is never reported negative.
	NumPaths          int64  `json:"num_shortest_paths"`
	NumPathsSaturated bool   `json:"num_shortest_paths_saturated,omitempty"`
	DTop              *int32 `json:"d_top"`
	ArcsScanned       int64  `json:"arcs_scanned"`
	Coverage          string `json:"coverage"`
	Disconnected      bool   `json:"disconnected"`
	Directed          bool   `json:"directed,omitempty"`
}

// coverageName names the query's coverage class; a directed server
// reports its kind instead.
func (s *Server) coverageName(c qbs.QueryStats) string {
	if s.directed {
		return "directed"
	}
	switch c.Coverage {
	case qbs.CoverageAll:
		return "all"
	case qbs.CoverageSome:
		return "some"
	case qbs.CoverageNone:
		return "none"
	default:
		return "trivial"
	}
}

// scratch is the per-request working set of /spg and /paths: the query
// result, its layering and the buffer the body is encoded in (/distance
// borrows one for its small body). The scratch returns to the pool only
// after the body has been written.
type scratch struct {
	spg qbs.SPG
	dag analysis.DAG
	buf []byte
	at  []int32 // the encoder's vertex offsets in buf
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledEdges is the largest answer whose scratch is kept. Buffers
// grow to the largest answer they ever held, so a scratch that served a
// bigger one (or a body past the ~16 bytes per edge such an answer
// encodes to) is left to the collector instead: one outsized query must
// not pin its megabytes in the pool for the life of the process. The
// layering's and the encoder's per-vertex buffers are bounded with the
// edges: an answer has at most two vertices per edge, plus one.
const maxPooledEdges = 1 << 16

func (sc *scratch) release() {
	if sc.spg.NumEdges() > maxPooledEdges || len(sc.buf) > 16*maxPooledEdges {
		return
	}
	scratchPool.Put(sc)
}

// send writes the body encoded in sc.buf in one piece under its
// Content-Length. With it ends the request's serialize stage, which the
// handler records: assembling the response from the query's result,
// encoding it and handing it to the connection.
func (sc *scratch) send(w http.ResponseWriter) {
	setHeader(w, "Content-Type", "application/json")
	setContentLength(w, len(sc.buf))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.buf)
}

// assembleSPG layers the scratch's result, completes resp from it and
// encodes the body into sc.buf, the edge list straight from the result.
// Vertices and path count are read off the answer's own edges, never
// asked of the index again, so a reply cannot mix two epochs.
func (sc *scratch) assembleSPG(resp SPGResponse, dTop int32) {
	sc.dag.Reset(&sc.spg)
	dist := sc.spg.Dist
	if dist == qbs.InfDist {
		resp.Disconnected = true
	} else {
		resp.Distance = &dist
		if dTop != qbs.InfDist {
			resp.DTop = &dTop
		}
		resp.Vertices = sc.dag.Vertices
		resp.NumPaths, resp.NumPathsSaturated = sc.dag.CountPaths()
	}
	sc.buf, sc.at = appendSPGResponse(sc.buf[:0], &resp, sc.dag.Edges(), sc.at)
}

func (s *Server) handleSPG(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf) {
	q := r.URL.RawQuery
	if !s.freshEnough(w, q) {
		return
	}
	u, v, ok := s.pair(w, q)
	if !ok {
		return
	}
	ss := s.spgStages
	qStart := ss.endParse(tb)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	st := s.b.QueryIntoStats(&sc.spg, u, v)
	s.recordQuery(ss, tb, qStart, u, v, st, true)
	start := time.Now()
	sc.assembleSPG(SPGResponse{
		Source:      u,
		Target:      v,
		ArcsScanned: st.ArcsScanned,
		Coverage:    s.coverageName(st),
		Directed:    s.directed,
	}, st.DTop)
	sc.send(w)
	ss.recordStage(tb, obs.StageSerialize, start, time.Since(start))
}

// DistanceResponse is the JSON body of /distance.
type DistanceResponse struct {
	Source       int32  `json:"source"`
	Target       int32  `json:"target"`
	Distance     *int32 `json:"distance"`
	Disconnected bool   `json:"disconnected"`
}

// handleDistance answers /distance through a pooled scratch: the same
// stages, buffer and single write as /spg, and no allocation of its own.
func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf) {
	q := r.URL.RawQuery
	if !s.freshEnough(w, q) {
		return
	}
	u, v, ok := s.pair(w, q)
	if !ok {
		return
	}
	ss := s.distanceStages
	qStart := ss.endParse(tb)
	st := s.b.DistanceStats(u, v)
	s.recordQuery(ss, tb, qStart, u, v, st, false)
	start := time.Now()
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	resp := DistanceResponse{Source: u, Target: v}
	if st.Dist == qbs.InfDist {
		resp.Disconnected = true
	} else {
		resp.Distance = &st.Dist
	}
	sc.buf = appendDistanceResponse(sc.buf[:0], &resp)
	sc.send(w)
	ss.recordStage(tb, obs.StageSerialize, start, time.Since(start))
}

// SketchResponse is the JSON body of /sketch.
type SketchResponse struct {
	Source    int32      `json:"source"`
	Target    int32      `json:"target"`
	DTop      *int32     `json:"d_top"`
	Pairs     [][2]int32 `json:"minimizing_landmark_pairs"` // landmark vertex ids
	Landmarks []int32    `json:"landmarks"`
}

func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request, _ *obs.TraceBuf) {
	q := r.URL.RawQuery
	if !s.freshEnough(w, q) {
		return
	}
	u, v, ok := s.pair(w, q)
	if !ok {
		return
	}
	sk := s.b.Sketch(u, v)
	resp := SketchResponse{Source: u, Target: v, Landmarks: s.b.Landmarks()}
	if sk.DTop != qbs.InfDist {
		dt := sk.DTop
		resp.DTop = &dt
		for _, p := range sk.Pairs {
			resp.Pairs = append(resp.Pairs, [2]int32{
				s.b.Landmarks()[p.R], s.b.Landmarks()[p.RPrime],
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// PathsResponse is the JSON body of /paths.
type PathsResponse struct {
	Source   int32  `json:"source"`
	Target   int32  `json:"target"`
	Distance *int32 `json:"distance"`
	// NumPaths saturates at MaxInt64 (NumPathsSaturated true) instead of
	// overflowing negative, so Truncated keeps its meaning on
	// astronomically path-rich pairs.
	NumPaths          int64     `json:"num_shortest_paths"`
	NumPathsSaturated bool      `json:"num_shortest_paths_saturated,omitempty"`
	Paths             [][]int32 `json:"paths"`
	Truncated         bool      `json:"truncated"`
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf) {
	q := r.URL.RawQuery
	if !s.freshEnough(w, q) {
		return
	}
	u, v, ok := s.pair(w, q)
	if !ok {
		return
	}
	limit := 16
	if raw := queryGet(q, "limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 1024 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "limit must be in [1,1024]"})
			return
		}
		limit = n
	}
	ss := s.pathsStages
	qStart := ss.endParse(tb)
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	st := s.b.QueryIntoStats(&sc.spg, u, v)
	s.recordQuery(ss, tb, qStart, u, v, st, true)
	start := time.Now()
	resp := PathsResponse{Source: u, Target: v}
	if sc.spg.Dist != qbs.InfDist {
		resp.Distance = &sc.spg.Dist
		// The trivial pair layers to the one-vertex DAG: distance 0 and
		// the single path [u], consistent with /spg.
		sc.dag.Reset(&sc.spg)
		resp.NumPaths, resp.NumPathsSaturated = sc.dag.CountPaths()
		resp.Paths = sc.dag.EnumeratePaths(limit)
		resp.Truncated = resp.NumPaths > int64(len(resp.Paths))
	}
	// Not a hot body: encoding/json, into the pooled buffer.
	buf := bytes.NewBuffer(sc.buf[:0])
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(&resp) // the body holds only numbers and slices of them
	sc.buf = buf.Bytes()
	sc.send(w)
	ss.recordStage(tb, obs.StageSerialize, start, time.Since(start))
}

// DynamicStatsResponse is the dynamic-maintenance section of /stats
// (mutable servers only).
type DynamicStatsResponse struct {
	Epoch           uint64 `json:"epoch"`
	Inserts         uint64 `json:"inserts"`
	Deletes         uint64 `json:"deletes"`
	ColumnsRepaired uint64 `json:"columns_repaired"`
	ColumnsRebuilt  uint64 `json:"columns_rebuilt"`
	LabelsRewritten uint64 `json:"labels_rewritten"`
	DeltaRecomputes uint64 `json:"delta_recomputes"`
	Compactions     uint64 `json:"compactions"` // overlay folds published, or on a replica applied
	Overridden      int    `json:"overridden_vertices"`
}

// StatsResponse is the JSON body of /stats. In directed mode Edges
// counts arcs, AvgDegree is arcs/|V| and Directed is true.
type StatsResponse struct {
	Vertices       int                   `json:"vertices"`
	Edges          int                   `json:"edges"`
	AvgDegree      float64               `json:"avg_degree"`
	NumLandmarks   int                   `json:"num_landmarks"`
	Landmarks      []int32               `json:"landmarks"`
	LabelEntries   int64                 `json:"label_entries,omitempty"`
	MetaEdges      int                   `json:"meta_edges,omitempty"`
	SizeLabels     int64                 `json:"size_labels_bytes"`
	SizeDelta      int64                 `json:"size_delta_bytes"`
	LabellingMS    float64               `json:"labelling_ms,omitempty"`
	ConstructionMS float64               `json:"construction_ms,omitempty"`
	Mutable        bool                  `json:"mutable"`
	Directed       bool                  `json:"directed,omitempty"`
	Dynamic        *DynamicStatsResponse `json:"dynamic,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, _ *obs.TraceBuf) {
	nv, ne := s.b.NumVertices(), s.b.NumEdges()
	resp := StatsResponse{
		Vertices:     nv,
		Edges:        ne,
		NumLandmarks: len(s.b.Landmarks()),
		Landmarks:    s.b.Landmarks(),
		SizeLabels:   s.b.SizeLabelsBytes(),
		SizeDelta:    s.b.SizeDeltaBytes(),
		Mutable:      s.writable,
	}
	// An undirected edge is two arcs; a digraph's count is arcs already.
	perEdge := 2.0
	if s.directed {
		perEdge, resp.Directed = 1, true
	}
	if nv > 0 {
		resp.AvgDegree = perEdge * float64(ne) / float64(nv)
	}
	if s.static != nil {
		st := s.static.Stats()
		resp.LabelEntries = st.LabelEntries
		resp.MetaEdges = st.MetaEdges
		resp.LabellingMS = float64(st.LabellingTime.Microseconds()) / 1000
		resp.ConstructionMS = float64(st.TotalTime.Microseconds()) / 1000
	}
	if s.dyn != nil {
		d := s.dyn.DynamicStats()
		// Pin the epoch/edge pair to one snapshot; the counters are
		// advisory and may trail by an in-flight write.
		epoch, edges := s.dyn.EpochEdges()
		resp.Edges = edges
		if nv > 0 {
			resp.AvgDegree = 2 * float64(edges) / float64(nv)
		}
		resp.Dynamic = &DynamicStatsResponse{
			Epoch:           epoch,
			Inserts:         d.Inserts,
			Deletes:         d.Deletes,
			ColumnsRepaired: d.ColumnsRepaired,
			ColumnsRebuilt:  d.ColumnsRebuilt,
			LabelsRewritten: d.LabelsRewritten,
			DeltaRecomputes: d.DeltaRecomputes,
			Compactions:     d.Compactions,
			Overridden:      d.Overridden,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// EdgeRequest is the JSON body of POST /edges. Pointer fields make
// missing keys detectable: a body that omits u or v is rejected rather
// than silently defaulting to vertex 0.
type EdgeRequest struct {
	U *int32 `json:"u"`
	V *int32 `json:"v"`
}

// EdgeResponse is the JSON body of POST /edges and DELETE /edges.
type EdgeResponse struct {
	Applied bool   `json:"applied"`
	Epoch   uint64 `json:"epoch"`
	Edges   int    `json:"edges"`
}

func (s *Server) handleAddEdge(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf) {
	if !s.boundBody(w, r) {
		return
	}
	var req EdgeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.U == nil || req.V == nil {
		// A chunked body with no Content-Length slips past boundBody's
		// up-front check and trips MaxBytesReader mid-decode instead.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("request body exceeds the %d-byte limit", maxWriteBody),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be {\"u\":<id>,\"v\":<id>}"})
		return
	}
	s.applyEdge(w, r, tb, qbs.V(*req.U), qbs.V(*req.V), true)
}

func (s *Server) handleRemoveEdge(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf) {
	if !s.drainBounded(w, r) {
		return
	}
	u, v, ok := s.pair(w, r.URL.RawQuery)
	if !ok {
		return
	}
	s.applyEdge(w, r, tb, u, v, false)
}

// applyEdge applies one write under a context carrying the request's span
// buffer, so the WAL append records its span into the request's trace.
func (s *Server) applyEdge(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf, u, v qbs.V, insert bool) {
	if u < 0 || int(u) >= s.b.NumVertices() || v < 0 || int(v) >= s.b.NumVertices() || u == v {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("edge {%d,%d} invalid: endpoints must be distinct ids in [0,%d)", u, v, s.b.NumVertices()),
		})
		return
	}
	res, err := s.dyn.ApplyEdgeCtx(obs.NewContext(r.Context(), tb), u, v, insert)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, qbs.ErrDiameterTooLarge) {
			status = http.StatusUnprocessableEntity
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, EdgeResponse{
		Applied: res.Applied,
		Epoch:   res.Epoch,
		Edges:   res.Edges,
	})
}

// CheckpointResponse is the JSON body of POST /checkpoint.
type CheckpointResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, tb *obs.TraceBuf) {
	if !s.drainBounded(w, r) {
		return
	}
	if !s.dyn.Durable() {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: "server has no durable store (start it with a data directory to enable checkpoints)",
		})
		return
	}
	sp := tb.StartSpan("checkpoint")
	epoch, err := s.dyn.Checkpoint()
	if err != nil {
		sp.Fail()
		sp.End()
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	sp.End()
	writeJSON(w, http.StatusOK, CheckpointResponse{Epoch: epoch})
}

// EpochResponse is the JSON body of GET /epoch.
type EpochResponse struct {
	Epoch uint64 `json:"epoch"`
	Edges int    `json:"edges"`
}

func (s *Server) handleEpoch(w http.ResponseWriter, _ *http.Request, _ *obs.TraceBuf) {
	epoch, edges := s.dyn.EpochEdges()
	writeJSON(w, http.StatusOK, EpochResponse{Epoch: epoch, Edges: edges})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	setHeader(w, "Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}
