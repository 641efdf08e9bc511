package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qbs/internal/obs"
)

// fakeBackend is a scriptable upstream: answers /epoch and /spg with
// configurable status, and counts what reaches it.
type fakeBackend struct {
	name    string
	epoch   atomic.Uint64
	failAll atomic.Bool // every endpoint answers 503
	fail503 atomic.Bool // queries answer 503, /epoch stays healthy
	reads   atomic.Int64
	writes  atomic.Int64
	ts      *httptest.Server
}

func newFakeBackend(t *testing.T, name string, epoch uint64) *fakeBackend {
	t.Helper()
	b := &fakeBackend{name: name}
	b.epoch.Store(epoch)
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.failAll.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		switch {
		case r.URL.Path == "/epoch":
			fmt.Fprintf(w, `{"epoch":%d,"edges":0}`, b.epoch.Load())
		case r.Method != http.MethodGet:
			b.writes.Add(1)
			fmt.Fprintf(w, `{"applied":true,"epoch":%d,"edges":0}`, b.epoch.Add(1))
		case b.fail503.Load():
			http.Error(w, "behind", http.StatusServiceUnavailable)
		default:
			b.reads.Add(1)
			fmt.Fprintf(w, `{"backend":%q}`, b.name)
		}
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func routeGet(t *testing.T, rt *Router, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestRouterSpreadsReadsAndRoutesWrites: reads land on replicas, writes
// on the primary, and both replicas see traffic.
func TestRouterSpreadsReadsAndRoutesWrites(t *testing.T) {
	prim := newFakeBackend(t, "primary", 10)
	r1 := newFakeBackend(t, "r1", 10)
	r2 := newFakeBackend(t, "r2", 10)
	rt := NewRouter(prim.ts.URL, []string{r1.ts.URL, r2.ts.URL}, RouterOptions{
		HealthInterval: 20 * time.Millisecond, Seed: 1,
	})
	defer rt.Stop()

	for i := 0; i < 60; i++ {
		if rec := routeGet(t, rt, "/spg?u=0&v=1"); rec.Code != 200 {
			t.Fatalf("read %d: status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("POST", "/edges", strings.NewReader(`{"u":0,"v":1}`)))
	if rec.Code != 200 {
		t.Fatalf("write status %d", rec.Code)
	}
	if prim.reads.Load() != 0 {
		t.Fatalf("primary served %d reads while both replicas were healthy", prim.reads.Load())
	}
	if prim.writes.Load() != 1 || r1.writes.Load() != 0 || r2.writes.Load() != 0 {
		t.Fatalf("writes landed wrong: primary=%d r1=%d r2=%d", prim.writes.Load(), r1.writes.Load(), r2.writes.Load())
	}
	if r1.reads.Load() == 0 || r2.reads.Load() == 0 {
		t.Fatalf("reads not spread: r1=%d r2=%d", r1.reads.Load(), r2.reads.Load())
	}
}

// TestRouterFailoverOn503 is the satellite failover test: a replica
// that starts answering 503 loses its reads to the other backends with
// zero client-visible errors, and is evicted once its health probe
// fails too.
func TestRouterFailoverOn503(t *testing.T) {
	prim := newFakeBackend(t, "primary", 10)
	good := newFakeBackend(t, "good", 10)
	bad := newFakeBackend(t, "bad", 10)
	rt := NewRouter(prim.ts.URL, []string{good.ts.URL, bad.ts.URL}, RouterOptions{
		HealthInterval: 20 * time.Millisecond, Seed: 2,
	})
	defer rt.Stop()

	// Phase 1: bad 503s its queries but still answers /epoch. Every
	// routed read must still succeed via retry on the good backends.
	bad.fail503.Store(true)
	for i := 0; i < 40; i++ {
		if rec := routeGet(t, rt, "/distance?u=0&v=1"); rec.Code != 200 {
			t.Fatalf("read %d: status %d (failover failed)", i, rec.Code)
		}
	}
	if good.reads.Load() == 0 {
		t.Fatal("good replica saw no reads")
	}

	// Phase 2: bad fails its health probe entirely → evicted.
	bad.failAll.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := rt.ReplicaHealth()
		if len(h) == 2 && h[0] && !h[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bad replica not evicted: health=%v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := bad.reads.Load()
	for i := 0; i < 20; i++ {
		if rec := routeGet(t, rt, "/distance?u=0&v=1"); rec.Code != 200 {
			t.Fatalf("read %d after eviction: status %d", i, rec.Code)
		}
	}
	if bad.reads.Load() != before {
		t.Fatal("evicted replica still receiving reads")
	}

	// Phase 3: bad recovers → readmitted.
	bad.failAll.Store(false)
	bad.fail503.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if h := rt.ReplicaHealth(); h[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered replica not readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterEvictsLaggingReplica: a replica whose epoch trails the
// primary past MaxLagEpochs is evicted until it catches up.
func TestRouterEvictsLaggingReplica(t *testing.T) {
	prim := newFakeBackend(t, "primary", 5000)
	lagging := newFakeBackend(t, "lagging", 100)
	rt := NewRouter(prim.ts.URL, []string{lagging.ts.URL}, RouterOptions{
		HealthInterval: 20 * time.Millisecond, MaxLagEpochs: 1000, Seed: 3,
	})
	defer rt.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := rt.ReplicaHealth(); !h[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lagging replica not evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With no healthy replica, reads fall back to the primary.
	if rec := routeGet(t, rt, "/distance?u=0&v=1"); rec.Code != 200 {
		t.Fatalf("fallback read status %d", rec.Code)
	}
	if prim.reads.Load() == 0 {
		t.Fatal("primary did not take the fallback read")
	}

	// Catch-up readmits it.
	lagging.epoch.Store(5000)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if h := rt.ReplicaHealth(); h[0] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("caught-up replica not readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterAnswersHealthAndMetricsLocally: /healthz and /metrics are
// the router's own endpoints — a load balancer probing the router must
// see the router's routability, not one random backend's health, and
// the routing table is state only the router holds. Neither request may
// be proxied to a backend.
func TestRouterAnswersHealthAndMetricsLocally(t *testing.T) {
	prim := newFakeBackend(t, "primary", 10)
	r1 := newFakeBackend(t, "r1", 10)
	rt := NewRouter(prim.ts.URL, []string{r1.ts.URL}, RouterOptions{
		HealthInterval: 20 * time.Millisecond, Seed: 5,
	})
	defer rt.Stop()

	rec := routeGet(t, rt, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	if rec.Header().Get("X-Qbs-Backend") != "" {
		t.Fatal("/healthz was proxied to a backend")
	}
	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy_backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || hz.Status != "ok" || hz.Healthy != 2 {
		t.Fatalf("/healthz body %q (err %v)", rec.Body.String(), err)
	}

	rec = routeGet(t, rt, "/metrics")
	if rec.Code != 200 || rec.Header().Get("X-Qbs-Backend") != "" {
		t.Fatalf("/metrics status %d, proxied=%v", rec.Code, rec.Header().Get("X-Qbs-Backend") != "")
	}
	var m struct {
		Primary  routerBackendMetrics   `json:"primary"`
		Replicas []routerBackendMetrics `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Primary.URL != prim.ts.URL || !m.Primary.Healthy || m.Primary.Epoch != 10 {
		t.Fatalf("primary row %+v", m.Primary)
	}
	if len(m.Replicas) != 1 || m.Replicas[0].URL != r1.ts.URL || !m.Replicas[0].Healthy {
		t.Fatalf("replica rows %+v", m.Replicas)
	}
	if got := prim.reads.Load() + r1.reads.Load(); got != 0 {
		t.Fatalf("%d local-endpoint requests reached a backend", got)
	}

	// HEAD routes like GET: /healthz answered locally (load balancers
	// commonly probe with HEAD), and a HEAD read must not be treated as
	// a write and forwarded to the primary.
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("HEAD", "/healthz", nil))
	if rec.Code != 200 || rec.Header().Get("X-Qbs-Backend") != "" {
		t.Fatalf("HEAD /healthz: status %d, proxied=%v", rec.Code, rec.Header().Get("X-Qbs-Backend") != "")
	}
	writesBefore := prim.writes.Load()
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("HEAD", "/spg?u=0&v=1", nil))
	if rec.Code != 200 {
		t.Fatalf("HEAD read: status %d", rec.Code)
	}
	if prim.writes.Load() != writesBefore {
		t.Fatal("HEAD read forwarded to the primary as a write")
	}

	// Every backend down: the router itself reports unroutable.
	prim.failAll.Store(true)
	r1.failAll.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rec := routeGet(t, rt, "/healthz"); rec.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz stayed 200 with every backend down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugTracesMinMsAcrossTiers: every tier parses ?min_ms= in
// obs.DebugMux, so a value that is not a duration — NaN, ±Inf, a
// product past what a time.Duration holds — is a 400 on the primary's
// server, on a replica and on the router alike, never a 200 listing
// every retained trace through a wrapped-around negative filter.
func TestDebugTracesMinMsAcrossTiers(t *testing.T) {
	p := newPrimaryFixture(t, 0, PrimaryOptions{})
	rep := startReplica(t, p.ts.URL, Options{})
	rt := NewRouter(p.ts.URL, nil, RouterOptions{HealthInterval: time.Hour, Seed: 1})
	defer rt.Stop()
	tiers := []struct {
		name string
		h    http.Handler
	}{
		{"server", p.ts.Config.Handler},
		{"replica", rep.Handler()},
		{"router", rt},
	}
	for _, tc := range []struct {
		minMs string
		want  int
	}{
		{"NaN", 400}, {"+Inf", 400}, {"-Inf", 400}, {"1e300", 400}, {"1e13", 400}, {"-1", 400},
		{"0", 200}, {"0.5", 200},
	} {
		for _, tier := range tiers {
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms="+url.QueryEscape(tc.minMs), nil))
			var body struct {
				Count *int   `json:"count"`
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s min_ms=%s: body %q: %v", tier.name, tc.minMs, rec.Body, err)
			}
			if rec.Code != tc.want || (tc.want == 200) != (body.Count != nil) || (tc.want == 400) != strings.Contains(body.Error, "min_ms") {
				t.Errorf("%s min_ms=%s: status %d body %q, want %d", tier.name, tc.minMs, rec.Code, rec.Body, tc.want)
			}
		}
	}
}

// TestRouterNeverForwardsDebug: every GET or HEAD under /debug/ is the
// router's own to answer — from its own sources, or with a 404 — and is
// never proxied: no backend sees a forwarded request, no pick is
// counted, and /debug/slowlog lists the router's own slow requests under
// the path they were routed for.
func TestRouterNeverForwardsDebug(t *testing.T) {
	var forwarded atomic.Int64
	upstream := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/epoch":
				fmt.Fprint(w, `{"epoch":1,"edges":0}`)
			case r.Header.Get(obs.TraceHeader) != "" && strings.HasPrefix(r.URL.Path, "/debug/"):
				// Forwarded: the router's own trace merge carries no trace
				// header.
				forwarded.Add(1)
			default:
				fmt.Fprint(w, `{}`)
			}
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	prim, r1 := upstream(), upstream()
	rt := NewRouter(prim.URL, []string{r1.URL}, RouterOptions{HealthInterval: time.Hour, Seed: 1})
	defer rt.Stop()
	tracer := obs.NewTracer(8)
	tracer.SetSlowThreshold(0)
	rt.SetTracer(tracer)

	if rec := routeGet(t, rt, "/distance?u=0&v=1"); rec.Code != 200 {
		t.Fatalf("routed read: status %d", rec.Code)
	}
	picks := func() (n uint64) {
		for _, b := range append([]*backend{rt.primary}, rt.replicas...) {
			n += b.picks.Load()
		}
		return n
	}
	before := picks()
	for path, want := range map[string]int{
		"/debug/slowlog": 200, "/debug/traces": 200, "/debug/logs": 200,
		"/debug/slo": 404, "/debug/profiles": 404, "/debug/fleet": 404,
		"/debug/pprof/": 404, "/debug/nothing": 404, "/debug/traces/ffffffffffffffff": 404,
		"/debug/logs?n=abc": 400,
	} {
		for _, method := range []string{"GET", "HEAD"} {
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != want || rec.Header().Get("X-Qbs-Backend") != "" {
				t.Errorf("%s %s: status %d (want %d), X-Qbs-Backend %q", method, path, rec.Code, want, rec.Header().Get("X-Qbs-Backend"))
			}
		}
	}
	if n := forwarded.Load(); n != 0 || picks() != before {
		t.Fatalf("%d /debug/ requests reached a backend, %d picks counted", n, picks()-before)
	}

	var log obs.SlowLogResponse
	if err := json.Unmarshal(routeGet(t, rt, "/debug/slowlog").Body.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Entries) != 1 || log.Entries[0].Endpoint != "/distance" || log.Entries[0].HasQuery || log.Entries[0].Status != 200 {
		t.Fatalf("router slow log %+v, want the one routed /distance", log.Entries)
	}
}
