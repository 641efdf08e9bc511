package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qbs/internal/obs"
)

// RouterOptions tunes the read-fanning query router.
type RouterOptions struct {
	// HealthInterval is the backend probe cadence (0 = 500ms).
	HealthInterval time.Duration
	// MaxLagEpochs evicts a replica whose applied epoch trails the
	// primary by more than this until it catches back up (0 = 4096).
	MaxLagEpochs uint64
	// Client issues the proxied requests (nil = a 30s-timeout client).
	Client *http.Client
	// Seed makes backend picks deterministic for tests (0 = time-based).
	Seed int64
	// Journal receives the router's structured events — backend
	// evictions, readmissions, primary failovers (nil = obs.DefaultJournal).
	Journal *obs.Journal
	// FleetInterval is ignored: the router scrapes no backend telemetry.
	// The field remains only because the frozen benchmark directory
	// sets it, and the next benchmark change removes it.
	FleetInterval time.Duration
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.MaxLagEpochs == 0 {
		o.MaxLagEpochs = 4096
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	if o.Journal == nil {
		o.Journal = obs.DefaultJournal
	}
	return o
}

// backend is one routed-to server with its balancing state.
type backend struct {
	url      string
	role     string // "primary" or "replica"
	inflight atomic.Int64
	healthy  atomic.Bool
	epoch    atomic.Uint64
	picks    *obs.Counter // forward attempts routed to this backend
}

// Router fans reads (GET and HEAD) across healthy replicas —
// power-of-two-choices on in-flight count — and forwards every other
// request to the primary.
// A read that fails on its chosen replica (transport error or 503, the
// min_epoch "still behind" answer) retries on the alternate choice and
// finally on the primary, which is always current. A background probe
// loop evicts replicas that fail health checks or fall more than
// MaxLagEpochs behind, and readmits them when they recover.
type Router struct {
	primary        *backend
	replicas       []*backend
	opts           RouterOptions
	probeClient    *http.Client    // short-timeout client for health probes
	probeTransport *http.Transport // private, torn down in Stop

	rngMu sync.Mutex
	rng   *rand.Rand

	// Routing-decision series on the router's own registry: per-backend
	// pick counters and healthy/epoch gauges, plus totals for read
	// retries and primary failovers.
	reg       *obs.Registry
	retries   *obs.Counter
	failovers *obs.Counter

	// Health & diagnostics control plane, served by obs.DebugMux over
	// src: proxied requests are traced, routing-state transitions go to
	// the journal.
	src          obs.DebugSources
	evEvicted    *obs.EventDef
	evReadmitted *obs.EventDef
	evFailover   *obs.EventDef
	local        *http.ServeMux // what the router answers itself, never proxies

	stop chan struct{}
	wg   sync.WaitGroup
}

// Journal returns the journal the router's events land in.
func (rt *Router) Journal() *obs.Journal { return rt.src.Journal }

// setHealthy flips b's routing bit and journals the transition; the
// trace ID (set on request-path evictions) ties the eviction to the
// request whose failure triggered it.
func (rt *Router) setHealthy(b *backend, healthy bool, reason, traceID string) {
	if b.healthy.Swap(healthy) == healthy {
		return
	}
	if healthy {
		rt.evReadmitted.Emit(obs.Str("backend", b.url), obs.Str("role", b.role))
	} else {
		rt.evEvicted.EmitTrace(traceID,
			obs.Str("backend", b.url), obs.Str("role", b.role), obs.Str("reason", reason))
	}
}

// Tracer returns the router's span tracer.
func (rt *Router) Tracer() *obs.Tracer { return rt.src.Tracer }

// SetTracer replaces the span tracer (obs.DefaultTracer by default) so
// tests and multi-router processes keep span stores isolated.
func (rt *Router) SetTracer(t *obs.Tracer) {
	if t != nil {
		rt.src.Tracer = t
	}
}

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// registerBackend attaches b's pick counter and state gauges to the
// router registry under a backend="<url>" label (role disambiguates the
// primary from a replica at the same URL in tests).
func (rt *Router) registerBackend(b *backend, role string) {
	b.role = role
	lbl := `backend="` + obs.EscapeLabel(b.url) + `",role="` + role + `"`
	b.picks = rt.reg.Counter("qbs_router_picks_total", lbl)
	rt.reg.GaugeFunc("qbs_router_backend_healthy", lbl, func() float64 {
		if b.healthy.Load() {
			return 1
		}
		return 0
	})
	rt.reg.GaugeFunc("qbs_router_backend_epoch", lbl, func() float64 {
		return float64(b.epoch.Load())
	})
}

// NewRouter builds a router over one primary and any number of replica
// base URLs and starts its health probes (one synchronous sweep runs
// before returning, so routing state is populated from the start).
func NewRouter(primaryURL string, replicaURLs []string, opts RouterOptions) *Router {
	opts = opts.withDefaults()
	probeTransport := &http.Transport{}
	rt := &Router{
		primary:        &backend{url: strings.TrimRight(primaryURL, "/")},
		opts:           opts,
		probeTransport: probeTransport,
		probeClient:    &http.Client{Timeout: 2 * time.Second, Transport: probeTransport},
		rng:            rand.New(rand.NewSource(opts.Seed)),
		reg:            obs.NewRegistry(),
		stop:           make(chan struct{}),
	}
	rt.retries = rt.reg.Counter("qbs_router_retries_total", "")
	rt.failovers = rt.reg.Counter("qbs_router_failovers_total", "")
	rt.src = obs.DebugSources{
		Tracer:  obs.DefaultTracer,
		Journal: opts.Journal,
	}
	rt.evEvicted = opts.Journal.Def("router", "backend_evicted", obs.LevelWarn)
	rt.evReadmitted = opts.Journal.Def("router", "backend_readmitted", obs.LevelInfo)
	rt.evFailover = opts.Journal.Def("router", "primary_failover", obs.LevelError)
	// /healthz and /metrics are the router's own — a load balancer
	// health-checking the router must observe the router's ability to
	// route, not one random backend's health, and the routing table is
	// state only the router has — and so is everything under /debug/:
	// the mux every tier mounts, with a trace lookup that also asks the
	// backends. HEAD answers 200 with no body, mirroring
	// the backend muxes, without rendering either local payload.
	headOK := func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) }
	rt.local = http.NewServeMux()
	rt.local.HandleFunc("HEAD /healthz", headOK)
	rt.local.HandleFunc("HEAD /metrics", headOK)
	rt.local.HandleFunc("GET /healthz", rt.serveHealthz)
	rt.local.HandleFunc("GET /metrics", rt.serveMetrics)
	rt.local.Handle("/debug/", obs.DebugMux(&rt.src))
	rt.local.HandleFunc("GET /debug/traces/{id}", rt.serveTraceByID)
	rt.primary.healthy.Store(true)
	rt.registerBackend(rt.primary, "primary")
	for _, u := range replicaURLs {
		b := &backend{url: strings.TrimRight(u, "/")}
		rt.registerBackend(b, "replica")
		rt.replicas = append(rt.replicas, b)
	}
	rt.sweep()
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt
}

// Stop ends the health probes and tears down their idle connections.
// In-flight proxied requests finish.
func (rt *Router) Stop() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.wg.Wait()
	rt.probeTransport.CloseIdleConnections()
}

func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.sweep()
		}
	}
}

// sweep probes every backend's /epoch concurrently: the primary's
// answer is the lag reference; a replica is healthy when it answers and
// trails by at most MaxLagEpochs. Probes use a short dedicated timeout
// so one black-holed backend cannot stall decisions about the others
// (or, on the synchronous first sweep, router startup).
func (rt *Router) sweep() {
	var wg sync.WaitGroup
	probeOne := func(b *backend, lagGated bool, tip uint64) {
		defer wg.Done()
		e, ok := rt.probe(b)
		if !ok {
			rt.setHealthy(b, false, "probe_failed", "")
			return
		}
		b.epoch.Store(e)
		if !lagGated || tip <= e || tip-e <= rt.opts.MaxLagEpochs {
			rt.setHealthy(b, true, "", "")
		} else {
			rt.setHealthy(b, false, "lagging", "")
		}
	}
	wg.Add(1)
	probeOne(rt.primary, false, 0)
	tip := rt.primary.epoch.Load()
	for _, b := range rt.replicas {
		wg.Add(1)
		go probeOne(b, true, tip)
	}
	wg.Wait()
}

// probe fetches a backend's current epoch.
func (rt *Router) probe(b *backend) (uint64, bool) {
	resp, err := rt.probeClient.Get(b.url + "/epoch")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return 0, false
	}
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return 0, false
	}
	return body.Epoch, true
}

// ServeHTTP implements http.Handler: writes to the primary, reads
// across the replicas. /healthz, /metrics and everything under /debug/
// are answered by the router itself (see NewRouter), a path it has
// nothing for with a 404: none is ever forwarded.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// HEAD routes like GET: it is a read (load balancers commonly
	// health-check with HEAD), and treating it as a write would proxy
	// HEAD /healthz to the primary — reporting one backend's health as
	// the router's.
	isRead := r.Method == http.MethodGet || r.Method == http.MethodHead
	if isRead && (r.URL.Path == "/healthz" || r.URL.Path == "/metrics" || strings.HasPrefix(r.URL.Path, "/debug/")) {
		rt.local.ServeHTTP(w, r)
		return
	}
	// Every proxied request carries a trace ID — the client's if it sent
	// a usable one (via either trace header), minted otherwise — held
	// constant across retries and the primary failover so one query is
	// one ID at every hop, and echoed on the response whoever writes it.
	// The router's root span is the top of the cross-process tree; each
	// forward attempt hangs a child under it, and the traceparent sent
	// downstream names that attempt span as the backend root's parent.
	tracer := rt.src.Tracer
	tb := tracer.BeginRequest("router", r, nil)
	traceID := tb.TraceID
	w.Header().Set(obs.TraceHeader, traceID)
	root := tb.Root()
	root.SetStr("method", r.Method)
	root.SetStr("path", r.URL.Path)
	// The root records the status the client actually saw (200 until a
	// handler says otherwise).
	sw := &obs.StatusWriter{ResponseWriter: w}
	w = sw
	defer func() {
		root.SetInt("status", int64(sw.Status()))
		tracer.Finish(tb)
	}()
	if !isRead {
		// Writes are forwarded exactly once: a retry could double-apply.
		if rt.forward(rt.primary, w, r, false, tb, 0) == fwdDone {
			return
		}
		tb.MarkError()
		httpError(w, http.StatusBadGateway, "primary unreachable")
		return
	}
	sawUnavailable := false
	for attempt, b := range rt.pick() {
		if attempt > 0 {
			rt.retries.Inc()
			if b == rt.primary {
				rt.failovers.Inc()
				// Request-scoped: the event shares the request's trace ID
				// with whatever error the failed replica journalled.
				rt.evFailover.EmitTrace(traceID,
					obs.Str("path", r.URL.Path), obs.Int("attempt", int64(attempt)))
			}
		}
		switch rt.forward(b, w, r, true, tb, attempt) {
		case fwdDone:
			return
		case fwdUnavailable:
			sawUnavailable = true
		}
	}
	tb.MarkError()
	if sawUnavailable {
		// Every backend said 503 (min_epoch not yet published anywhere,
		// or mid-restart): preserve the documented retriable signal
		// instead of flattening it into a terminal 502.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no backend can answer yet; retry")
		return
	}
	httpError(w, http.StatusBadGateway, "no backend could answer")
}

// forward outcomes.
const (
	fwdDone        = iota // response written to the client
	fwdFailed             // transport-level failure, nothing written
	fwdUnavailable        // backend answered 503 (drained, nothing written)
)

// pick orders the read candidates: two healthy replicas chosen at
// random, the less loaded first (power of two choices), with the
// primary as the final fallback.
func (rt *Router) pick() []*backend {
	var healthy []*backend
	for _, b := range rt.replicas {
		if b.healthy.Load() {
			healthy = append(healthy, b)
		}
	}
	switch len(healthy) {
	case 0:
		return []*backend{rt.primary}
	case 1:
		return []*backend{healthy[0], rt.primary}
	}
	rt.rngMu.Lock()
	i := rt.rng.Intn(len(healthy))
	j := rt.rng.Intn(len(healthy) - 1)
	rt.rngMu.Unlock()
	if j >= i {
		j++
	}
	a, b := healthy[i], healthy[j]
	if b.inflight.Load() < a.inflight.Load() {
		a, b = b, a
	}
	return []*backend{a, b, rt.primary}
}

// forward proxies one request to b. retryable (reads) treats transport
// errors and 503 as "try the next backend" (fwdFailed/fwdUnavailable,
// nothing written); writes pass every completed response through. Each
// call records a per-attempt child span carrying the backend URL and
// attempt ordinal — the record of *which* backend a failover left —
// and propagates traceparent naming that span as the downstream parent.
func (rt *Router) forward(b *backend, w http.ResponseWriter, r *http.Request, retryable bool, tb *obs.TraceBuf, attempt int) int {
	b.inflight.Add(1)
	b.picks.Inc()
	defer b.inflight.Add(-1)

	sp := tb.StartSpan("router.attempt")
	sp.SetStr("backend", b.url)
	sp.SetInt("attempt", int64(attempt))
	defer sp.End()

	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+r.URL.RequestURI(), r.Body)
	if err != nil {
		sp.Fail()
		return fwdFailed
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	tid := tb.TraceID
	req.Header.Set(obs.TraceHeader, tid)
	var parent uint64
	if sp != nil {
		parent = sp.ID
	}
	// A client ID traceparent cannot carry unchanged travels in the
	// trace header alone: the backend then roots its spans without a
	// parent and samples by its own rules.
	if tp := obs.FormatTraceparent(tid, parent, tb.Sampled()); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		sp.Fail()
		// Only a failure of the backend counts against it. Under
		// qbs-server's serving loop r.Context() ends only when a
		// shutdown's drain runs out — a client that hangs up cancels
		// nothing, and the upstream request runs on, bounded by
		// opts.Client's timeout — and that ending must not evict a
		// healthy replica;
		// under net/http a hangup cancels it too, and evicting for that
		// would let impatient clients drain the read pool.
		if retryable && r.Context().Err() == nil {
			// Next sweep readmits it if it recovers; the eviction event
			// carries the request's trace ID.
			rt.setHealthy(b, false, "transport_error", tid)
		}
		return fwdFailed
	}
	defer resp.Body.Close()
	sp.SetInt("status", int64(resp.StatusCode))
	if resp.StatusCode >= http.StatusInternalServerError {
		sp.Fail()
	}
	if retryable && resp.StatusCode == http.StatusServiceUnavailable {
		// A replica refusing min_epoch (or mid-bootstrap): drain and let
		// the caller try a fresher backend.
		io.Copy(io.Discard, resp.Body)
		return fwdUnavailable
	}
	for k, vs := range resp.Header {
		// Set, not added to: the backend echoes the trace ID the intake
		// already put on w.
		w.Header()[k] = vs
	}
	w.Header().Set("X-Qbs-Backend", b.url)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return fwdDone
}

// serveHealthz answers the router's own liveness: 200 while at least
// one backend (primary included) is routable, 503 when every backend is
// down — the signal a load balancer fronting several routers needs.
func (rt *Router) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, b := range append([]*backend{rt.primary}, rt.replicas...) {
		if b.healthy.Load() {
			healthy++
		}
	}
	if healthy == 0 {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "no routable backend")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"healthy_backends\":%d}\n", healthy)
}

// serveMetrics renders the router registry — picks, retries,
// failovers and the routing table's healthy/epoch gauges — and the
// process-wide series as Prometheus text.
func (rt *Router) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = obs.WritePrometheus(w, rt.reg, obs.Default)
}

// serveTraceByID assembles the full cross-process span tree for one
// trace: the router's locally retained spans merged with whatever each
// backend retained under the same ID (fetched over its own
// /debug/traces/{id}, deduplicated by span ID). Backends that dropped
// the trace — or are down — simply contribute nothing; the tree is the
// union of what survived tail sampling at every tier.
func (rt *Router) serveTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id") // one path segment: safe to splice into the backends' URL
	merged := rt.src.Tracer.Store().Get(id)
	for _, b := range append([]*backend{rt.primary}, rt.replicas...) {
		if st := rt.fetchTrace(r, b.url, id); st != nil {
			merged = obs.MergeStored(merged, st)
		}
	}
	if merged == nil {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("trace %q not found on the router or any backend", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(merged)
}

// fetchTrace pulls one backend's view of a trace; nil when the backend
// is unreachable or never retained it.
func (rt *Router) fetchTrace(r *http.Request, base, id string) *obs.StoredTrace {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, base+"/debug/traces/"+id, nil)
	if err != nil {
		return nil
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var st obs.StoredTrace
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil
	}
	if st.TraceID != id {
		return nil
	}
	return &st
}

// Backends reports the routing table — observability for tests and the
// qbs-server -router log line.
func (rt *Router) Backends() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "primary %s (epoch %d, healthy %v)", rt.primary.url, rt.primary.epoch.Load(), rt.primary.healthy.Load())
	for i, b := range rt.replicas {
		fmt.Fprintf(&sb, "; replica[%d] %s (epoch %d, healthy %v, inflight %d)",
			i, b.url, b.epoch.Load(), b.healthy.Load(), b.inflight.Load())
	}
	return sb.String()
}

// ReplicaHealth reports each replica's current healthy bit, in the
// order the replicas were configured.
func (rt *Router) ReplicaHealth() []bool {
	out := make([]bool, len(rt.replicas))
	for i, b := range rt.replicas {
		out[i] = b.healthy.Load()
	}
	return out
}
