package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"qbs/internal/server"
	gen "qbs/internal/workload"
)

type opKind uint8

const (
	opSPG opKind = iota
	opDistance
	opInsert
	opDelete
)

// op is one generated request.
type op struct {
	kind opKind
	u, v int32
}

func (o op) method() string {
	switch o.kind {
	case opInsert:
		return "POST"
	case opDelete:
		return "DELETE"
	}
	return "GET"
}

// path renders the request target; minEpoch > 0 adds the
// read-your-writes parameter.
func (o op) path(minEpoch uint64) string {
	b := make([]byte, 0, 64)
	switch o.kind {
	case opSPG:
		b = append(b, "/spg?u="...)
	case opDistance:
		b = append(b, "/distance?u="...)
	case opInsert:
		return "/edges"
	case opDelete:
		b = append(b, "/edges?u="...)
	}
	b = strconv.AppendInt(b, int64(o.u), 10)
	b = append(b, "&v="...)
	b = strconv.AppendInt(b, int64(o.v), 10)
	if minEpoch > 0 {
		b = append(b, "&min_epoch="...)
		b = strconv.AppendUint(b, minEpoch, 10)
	}
	return string(b)
}

func (o op) payload() []byte {
	if o.kind != opInsert {
		return nil
	}
	return []byte(fmt.Sprintf(`{"u":%d,"v":%d}`, o.u, o.v))
}

// readOps samples count reads for one connection: pair endpoints by the
// workload's rule (uniform or Zipf), 70 % /spg and 30 % /distance.
func readOps(w workload, g *localGraph, count int, seed int64) []op {
	var ps []gen.Pair
	if w.zipf > 0 {
		ps = gen.ZipfPairs(g.n, count, w.zipf, seed)
	} else {
		ps = gen.SamplePairs(g.g, count, seed)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	ops := make([]op, len(ps))
	for i, p := range ps {
		kind := opSPG
		if rng.Float64() >= spgShare {
			kind = opDistance
		}
		ops[i] = op{kind, p.U, p.V}
	}
	return ops
}

// writeOps is the paced mutation stream of connection 2: alternating
// insertions of absent edges and deletions of present ones, valid in
// order against the workload's graph.
func writeOps(g *localGraph, count int, seed int64) []op {
	muts := gen.Mutations(g.g, count, seed)
	ops := make([]op, len(muts))
	for i, m := range muts {
		kind := opInsert
		if m.Kind == gen.OpDelete {
			kind = opDelete
		}
		ops[i] = op{kind, m.U, m.V}
	}
	return ops
}

// sample is one read's latency and when, from the start of its phase, it
// was sent (closed loop) or due (open loop). Nanoseconds.
type sample struct{ at, ns int64 }

// phase is what the connections observed in one timed phase. Latencies
// are nanoseconds.
type phase struct {
	spg, distance       []sample
	ref                 []sample // closed loop: the reference requests
	write, ryw, visible []int64
	late                []int64 // open loop: how long after it could send a request the generator did
	attempted, failed   int
	lagEpochsMax        uint64
	firstErr            string
}

func (p *phase) merge(q *phase) {
	p.spg = append(p.spg, q.spg...)
	p.distance = append(p.distance, q.distance...)
	p.ref = append(p.ref, q.ref...)
	p.write = append(p.write, q.write...)
	p.ryw = append(p.ryw, q.ryw...)
	p.visible = append(p.visible, q.visible...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.lagEpochsMax = max(p.lagEpochsMax, q.lagEpochsMax)
	if p.firstErr == "" {
		p.firstErr = q.firstErr
	}
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = fmt.Sprintf(format, args...)
	}
}

// schedule fixes the phase boundaries shared by every connection.
type schedule struct {
	start, warmEnd, closedEnd, openEnd time.Time
}

// newSchedule splits seconds into warm-up (10 %) and the timed phases.
// Only per-layer metrics come from the open loop, so an end-to-end run
// gives the closed loop all of the remaining 90 % and a traced run
// halves it between the two.
func newSchedule(seconds float64, openLoop bool) schedule {
	d := func(share float64) time.Duration { return time.Duration(seconds * share * float64(time.Second)) }
	closed, open := 0.90, 0.0
	if openLoop {
		closed, open = 0.45, 0.45
	}
	s := schedule{start: time.Now()}
	s.warmEnd = s.start.Add(d(0.10))
	s.closedEnd = s.warmEnd.Add(d(closed))
	s.openEnd = s.closedEnd.Add(d(open))
	return s
}

// liveResult is the outcome of the timed phases.
type liveResult struct {
	closed, open  phase
	warm          int           // requests sent during warm-up (not reported, but the servers worked on them)
	finalEpoch    uint64        // epoch of the last acknowledged write
	minEpochReads int           // read-your-writes reads sent, warm-up included
	acked         []op          // acknowledged writes that changed the graph, in order
	closedLen     time.Duration // length of the closed phase
	openLen       time.Duration // length of the open phase; 0 when the run has none
}

// readPrefix is the leading bytes of a well-formed read reply; the
// timed phases check shape only and leave full decoding to the oracle
// check, so the generator stays cheap beside the server.
var readPrefix = []byte(`{"source":`)

func wellFormedRead(status int, body []byte) bool {
	return status == 200 && bytes.HasPrefix(body, readPrefix) && bytes.HasSuffix(body, []byte("}\n"))
}

// reader drives the read connection: closed loop through warm-up and
// the closed phase, every read followed by one request to the reference
// server on ref (see refHandler); then open loop at rate requests/s, the
// k-th request due at closedEnd + k/rate and timed from that instant.
func reader(c, ref *conn, ops []op, sch schedule, rate float64, res *liveResult) {
	i := 0
	refStart := uint32(1) // where the reference request starts its walk: a fixed sequence
	reference := func(ph *phase, phaseStart, from time.Time) time.Time {
		refStart = refStart*1664525 + 1013904223
		status, _, err := ref.do("GET", "/ref?s="+strconv.FormatUint(uint64(refStart), 10), nil)
		done := time.Now()
		switch {
		case ph == nil:
		case err != nil || status != 200:
			ph.fail("reference request: status %d err %v", status, err)
		default:
			ph.ref = append(ph.ref, sample{int64(from.Sub(phaseStart)), int64(done.Sub(from))})
		}
		return done
	}
	issue := func(ph *phase, phaseStart, from time.Time) time.Time {
		o := ops[i%len(ops)]
		i++
		status, body, err := c.do("GET", o.path(0), nil)
		done := time.Now()
		if ph == nil {
			res.warm++
			return done
		}
		ph.attempted++
		switch {
		case err != nil:
			ph.fail("%v", err)
		case !wellFormedRead(status, body):
			ph.fail("GET %s: status %d body %.80q", o.path(0), status, body)
		case o.kind == opSPG:
			ph.spg = append(ph.spg, sample{int64(from.Sub(phaseStart)), int64(done.Sub(from))})
		default:
			ph.distance = append(ph.distance, sample{int64(from.Sub(phaseStart)), int64(done.Sub(from))})
		}
		return done
	}
	for now := time.Now(); now.Before(sch.closedEnd); {
		ph := &res.closed
		if now.Before(sch.warmEnd) {
			ph = nil
		}
		now = issue(ph, sch.warmEnd, now)
		now = reference(ph, sch.warmEnd, now)
	}
	interval := time.Duration(float64(time.Second) / rate)
	free := time.Now() // when the connection could take its next request
	for due := sch.closedEnd; due.Before(sch.openEnd); due = due.Add(interval) {
		sleepUntil(due)
		// Lateness is the generator's own: a request held back by the
		// previous reply is queueing, which the latency already counts.
		ready := due
		if free.After(due) {
			ready = free
		}
		res.open.late = append(res.open.late, int64(time.Since(ready)))
		free = issue(&res.open, sch.closedEnd, due)
	}
}

// writer drives connection 2: one write every 1/rate seconds from the
// start of the run to the end of the open phase, each timed from its due
// instant. On the routed workload every acknowledged write is followed
// at once by one /spg?min_epoch=<acked epoch> through the router (the
// read-your-writes path) and by polling the replica's /epoch until the
// write is visible there.
func writer(c *conn, replica *conn, writes, reads []op, sch schedule, rate float64, res *liveResult) {
	interval := time.Duration(float64(time.Second) / rate)
	k := 0
	for due := sch.start; due.Before(sch.openEnd) && k < len(writes); due = due.Add(interval) {
		sleepUntil(due)
		var ph *phase
		switch {
		case due.Before(sch.warmEnd):
			ph = &phase{} // warm-up: acknowledged and replayed, not reported
			res.warm++
		case due.Before(sch.closedEnd):
			ph = &res.closed
		default:
			ph = &res.open
		}
		o := writes[k]
		k++
		ph.attempted++
		status, body, err := c.do(o.method(), o.path(0), o.payload())
		acked := time.Now()
		var ack server.EdgeResponse
		if err == nil && status == 200 {
			err = json.Unmarshal(body, &ack)
		}
		if err != nil || status != 200 {
			ph.fail("%s %s: status %d err %v body %.80q", o.method(), o.path(0), status, err, body)
			continue
		}
		ph.write = append(ph.write, int64(acked.Sub(due)))
		res.finalEpoch = ack.Epoch
		if ack.Applied {
			res.acked = append(res.acked, o)
		}
		if replica == nil {
			continue
		}
		r := reads[k%len(reads)]
		r.kind = opSPG
		ph.attempted++
		res.minEpochReads++
		status, body, err = c.do("GET", r.path(ack.Epoch), nil)
		if err != nil || !wellFormedRead(status, body) {
			ph.fail("GET %s: status %d err %v body %.80q", r.path(ack.Epoch), status, err, body)
		} else {
			ph.ryw = append(ph.ryw, int64(time.Since(acked)))
		}
		awaitEpoch(replica, ack.Epoch, acked, ph)
	}
}

// awaitEpoch polls the replica's /epoch until it reaches epoch and
// records how long after the acknowledgement that was, plus how far
// behind the replica was at the first look.
func awaitEpoch(replica *conn, epoch uint64, acked time.Time, ph *phase) {
	for first := true; ; first = false {
		got, err := fetchEpoch(replica)
		if err != nil {
			ph.fail("replica /epoch: %v", err)
			return
		}
		if first && got < epoch {
			ph.lagEpochsMax = max(ph.lagEpochsMax, epoch-got)
		}
		if got >= epoch {
			ph.visible = append(ph.visible, int64(time.Since(acked)))
			return
		}
		if time.Since(acked) > requestTimeout {
			ph.fail("replica stuck at epoch %d, want %d", got, epoch)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchEpoch(c *conn) (uint64, error) {
	var e server.EpochResponse
	err := getJSON(c, "/epoch", &e)
	return e.Epoch, err
}

// runLive drives the workload's connections through warm-up, the closed
// phase and, in a traced run, the open phase. Connection 1 carries the
// reads, one request in flight; where the workload has writes,
// connection 2 carries them. The host has two cores: a second reader
// would have the generator and the server queue for them, and the
// latencies would be the scheduler's.
func runLive(w workload, tp *topology, refURL string, g *localGraph, seed int64, seconds float64, openLoop bool) *liveResult {
	const readOpsPerRun = 1 << 18 // more than the connection issues in a run; wraps otherwise
	ops := readOps(w, g, readOpsPerRun, seed*16)
	var writes, rywReads []op
	if w.writeRate > 0 {
		writes = writeOps(g, int(seconds*w.writeRate)+1, seed*16+2)
		rywReads = readOps(w, g, len(writes), seed*16+3)
	}

	sch := newSchedule(seconds, openLoop)
	res := &liveResult{closedLen: sch.closedEnd.Sub(sch.warmEnd), openLen: sch.openEnd.Sub(sch.closedEnd)}
	written := &liveResult{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, ref := dial(tp.readURL), dial(refURL)
		defer c.close()
		defer ref.close()
		reader(c, ref, ops, sch, w.openRate, res)
	}()
	if w.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(tp.writeURL)
			defer c.close()
			var replica *conn
			if w.routed {
				replica = dial(tp.backendURL)
				defer replica.close()
			}
			writer(c, replica, writes, rywReads, sch, w.writeRate, written)
		}()
	}
	wg.Wait()
	res.closed.merge(&written.closed)
	res.open.merge(&written.open)
	res.warm += written.warm
	res.minEpochReads = written.minEpochReads
	res.acked = written.acked
	res.finalEpoch = written.finalEpoch
	return res
}

// sleepUntil blocks until t. An idle Go program's timers fire up to a
// millisecond late (the runtime waits in epoll_wait, which counts in
// milliseconds), most of a request's latency at these rates; so the
// runtime timer covers all but the last millisecond and a kernel
// nanosleep the rest. Sleeping in the kernel for the whole wait would
// hold the goroutine's P in a syscall and stall the other connection's
// goroutine for up to 10 ms at a time.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal wakes it early; the loop goes back to sleep
	}
}

// The closed loop is cut into one-second windows, because the host's
// speed changes within a run: a latency is divided by the reference's in
// the same second, and the median of the seconds is reported. The open
// loop charges every request due during a stall for it, so one stall
// sets a window's p99 on its own; it is cut into nine windows and
// reports their median.
const (
	closedWindow = time.Second
	openWindows  = 9
)

// closedWindows is how many windows the closed phase has.
func closedWindows(phaseLen time.Duration) int { return max(int(phaseLen/closedWindow), 1) }

// perWindow cuts the phase into n equal windows by the time each sample
// was sent or due; windows[i] holds the latencies of window i.
func perWindow(samples []sample, phaseLen time.Duration, n int) [][]int64 {
	windows := make([][]int64, n)
	for _, s := range samples {
		if w := int(s.at * int64(n) / int64(phaseLen)); w >= 0 && w < n {
			windows[w] = append(windows[w], s.ns)
		}
	}
	return windows
}

// windowed returns the median over the phase's n windows of the
// q-quantile of the samples in each window.
func windowed(samples []sample, phaseLen time.Duration, n int, q float64) float64 {
	var quantiles []int64
	for _, w := range perWindow(samples, phaseLen, n) {
		if len(w) > 0 {
			quantiles = append(quantiles, int64(percentile(w, q)))
		}
	}
	return percentile(quantiles, 0.5)
}

// relative returns the median over the phase's n windows of the ratio
// of the q-quantile of samples to the q-quantile of ref in the same
// window. A window short of either (a stall swallowed it) is left out.
func relative(samples, ref []sample, phaseLen time.Duration, n int, q float64) float64 {
	const enough = 5
	sw, rw := perWindow(samples, phaseLen, n), perWindow(ref, phaseLen, n)
	var ratios []float64
	for i := range n {
		if len(sw[i]) >= enough && len(rw[i]) >= enough {
			ratios = append(ratios, percentile(sw[i], q)/percentile(rw[i], q))
		}
	}
	if len(ratios) == 0 {
		return math.NaN()
	}
	slices.Sort(ratios)
	return ratios[(len(ratios)-1)/2]
}

func latencies(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.ns
	}
	return out
}

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, NaN for an empty sample. xs is sorted in place.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(rank, 0)])
}

func sum(xs []int64) (total int64) {
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return float64(sum(xs)) / float64(len(xs))
}
