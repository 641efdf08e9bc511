package replica

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qbs/internal/obs"
)

// traceBackend records the X-Qbs-Trace-Id and traceparent of every
// query that reaches it and can be told to answer 503 (the retriable
// signal).
type traceBackend struct {
	mu    sync.Mutex
	ids   []string
	tps   []string // traceparent headers, "" where none was sent
	fail  atomic.Bool
	epoch uint64
	ts    *httptest.Server
}

func newTraceBackend(t *testing.T, epoch uint64) *traceBackend {
	t.Helper()
	b := &traceBackend{epoch: epoch}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/epoch" {
			fmt.Fprintf(w, `{"epoch":%d,"edges":0}`, b.epoch)
			return
		}
		b.mu.Lock()
		b.ids = append(b.ids, r.Header.Get(obs.TraceHeader))
		b.tps = append(b.tps, r.Header.Get(obs.TraceparentHeader))
		b.mu.Unlock()
		if b.fail.Load() {
			http.Error(w, "behind", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set(obs.TraceHeader, r.Header.Get(obs.TraceHeader))
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func (b *traceBackend) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.ids...)
}

// lastTraceparent is the traceparent header of the latest query.
func (b *traceBackend) lastTraceparent() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tps[len(b.tps)-1]
}

// TestRouterInjectsTraceID: a read without a client trace ID reaches
// the backend with a router-minted one, and a client-supplied ID passes
// through verbatim.
func TestRouterInjectsTraceID(t *testing.T) {
	prim := newTraceBackend(t, 5)
	r1 := newTraceBackend(t, 5)
	rt := NewRouter(prim.ts.URL, []string{r1.ts.URL}, RouterOptions{
		HealthInterval: time.Hour, Seed: 1,
	})
	defer rt.Stop()

	rec := routeGet(t, rt, "/spg?u=0&v=1")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	ids := r1.seen()
	if len(ids) != 1 || ids[0] == "" {
		t.Fatalf("backend saw trace IDs %v, want one minted ID", ids)
	}
	if got := rec.Header().Get(obs.TraceHeader); got != ids[0] {
		t.Fatalf("response trace ID %q, backend saw %q", got, ids[0])
	}

	req := httptest.NewRequest("GET", "/spg?u=0&v=1", nil)
	req.Header.Set(obs.TraceHeader, "0123456789abcdef")
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	ids = r1.seen()
	if last := ids[len(ids)-1]; last != "0123456789abcdef" {
		t.Fatalf("client trace ID rewritten to %q", last)
	}
}

// TestRouterRetriesKeepTraceID: when the chosen replicas answer 503
// and the read fails over to the primary, every hop of the one request
// carries the same trace ID — and the retry/failover counters advance.
func TestRouterRetriesKeepTraceID(t *testing.T) {
	prim := newTraceBackend(t, 5)
	r1 := newTraceBackend(t, 5)
	r2 := newTraceBackend(t, 5)
	r1.fail.Store(true)
	r2.fail.Store(true)
	rt := NewRouter(prim.ts.URL, []string{r1.ts.URL, r2.ts.URL}, RouterOptions{
		HealthInterval: time.Hour, Seed: 1,
	})
	defer rt.Stop()

	rec := routeGet(t, rt, "/spg?u=0&v=1")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var ids []string
	for _, b := range []*traceBackend{r1, r2, prim} {
		ids = append(ids, b.seen()...)
	}
	if len(ids) != 3 {
		t.Fatalf("expected 3 hops, saw %d (%v)", len(ids), ids)
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("trace ID changed across retries: %v", ids)
		}
	}
	if rt.retries.Load() != 2 {
		t.Fatalf("retries %d, want 2", rt.retries.Load())
	}
	if rt.failovers.Load() != 1 {
		t.Fatalf("failovers %d, want 1", rt.failovers.Load())
	}
}

// TestRouterPrometheusMetrics: the router's /metrics is a valid
// Prometheus exposition with the routing-decision series, the same
// rendering with or without ?format=prometheus; HEAD probes answer 200
// with no body.
func TestRouterPrometheusMetrics(t *testing.T) {
	prim := newTraceBackend(t, 5)
	r1 := newTraceBackend(t, 5)
	rt := NewRouter(prim.ts.URL, []string{r1.ts.URL}, RouterOptions{
		HealthInterval: time.Hour, Seed: 1,
	})
	defer rt.Stop()
	routeGet(t, rt, "/spg?u=0&v=1")

	for _, path := range []string{"/metrics", "/metrics?format=prometheus"} {
		text := promText(t, routeGet(t, rt, path))
		wantLines(t, text, "qbs_router_retries_total 0")
		for _, want := range []string{"qbs_router_picks_total{", "qbs_router_backend_healthy{"} {
			if !strings.Contains(text, want) {
				t.Fatalf("%s: exposition missing %q:\n%s", path, want, text)
			}
		}
	}

	for _, path := range []string{"/metrics", "/healthz"} {
		req := httptest.NewRequest("HEAD", path, nil)
		hrec := httptest.NewRecorder()
		rt.ServeHTTP(hrec, req)
		if hrec.Code != 200 || hrec.Body.Len() != 0 {
			t.Fatalf("HEAD %s: status %d body %q", path, hrec.Code, hrec.Body.String())
		}
	}
}

// TestTraceIDIntakeAcrossTiers: server and router take a request's
// trace ID in through the same function. A client's X-Qbs-Trace-Id of
// 1-64 characters of [0-9A-Za-z_-] is echoed (and, on the router, is
// what the backend sees); anything else — an ID that could never be
// looked up under /debug/traces/{id} — is replaced by a fresh 16-hex
// one, the request served all the same; a valid traceparent wins over
// the header either way. Whatever the client sent, the traceparent the
// router forwards is absent or parses back to the echoed ID under the
// router's attempt span — present whenever that ID is 16 hex digits,
// as every minted one is.
func TestTraceIDIntakeAcrossTiers(t *testing.T) {
	p := newPrimaryFixture(t, 0, PrimaryOptions{})
	upstream := newTraceBackend(t, 5)
	rt := NewRouter(upstream.ts.URL, nil, RouterOptions{HealthInterval: time.Hour, Seed: 1})
	defer rt.Stop()
	tracer := obs.NewTracer(64)
	tracer.SetSlowThreshold(0) // retain every trace, so each attempt span can be looked up
	rt.SetTracer(tracer)
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	minted := regexp.MustCompile(`^[0-9a-f]{16}$`)
	const traceparent = "00-0000000000000000feedc0ffee000001-00000000000000aa-01"
	for _, tc := range []struct {
		name, header, traceparent, want string // want "": a minted ID
	}{
		{"usable", "deadbeefcafe0123", "", "deadbeefcafe0123"},
		{"every allowed character", "Az09_-", "", "Az09_-"},
		{"64 characters", strings.Repeat("a", 64), "", strings.Repeat("a", 64)},
		{"slash", "a/b", "", ""},
		{"space", "x y", "", ""},
		{"65 characters", strings.Repeat("a", 65), "", ""},
		{"100 KB", strings.Repeat("a", 100<<10), "", ""},
		{"empty", "", "", ""},
		{"traceparent over a usable header", "deadbeefcafe0123", traceparent, "feedc0ffee000001"},
		{"traceparent over an unusable header", "a/b", traceparent, "feedc0ffee000001"},
		{"malformed traceparent", "deadbeefcafe0123", "00-xyz", "deadbeefcafe0123"},
	} {
		for tier, h := range map[string]http.Handler{"server": p.ts.Config.Handler, "router": rt} {
			req := httptest.NewRequest("GET", "/distance?u=0&v=1", nil)
			if tc.header != "" {
				req.Header.Set(obs.TraceHeader, tc.header)
			}
			if tc.traceparent != "" {
				req.Header.Set(obs.TraceparentHeader, tc.traceparent)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			got := rec.Header().Values(obs.TraceHeader)
			if rec.Code != 200 || len(got) != 1 {
				t.Fatalf("%s, %s: status %d, trace IDs %q", tier, tc.name, rec.Code, got)
			}
			if tc.want != "" && got[0] != tc.want || tc.want == "" && (!minted.MatchString(got[0]) || got[0] == tc.header) {
				t.Errorf("%s, %s: trace ID %q, want %q (empty: a minted one)", tier, tc.name, got[0], tc.want)
			}
			if tier != "router" {
				continue
			}
			if seen := upstream.seen(); seen[len(seen)-1] != got[0] {
				t.Errorf("router, %s: backend saw trace ID %q, the client %q", tc.name, seen[len(seen)-1], got[0])
			}
			tp := upstream.lastTraceparent()
			if tp == "" {
				if hex16.MatchString(got[0]) {
					t.Errorf("router, %s: no traceparent forwarded for trace ID %q", tc.name, got[0])
				}
				continue
			}
			id, parent, _, ok := obs.ParseTraceparent(tp)
			if !ok || id != got[0] {
				t.Errorf("router, %s: forwarded traceparent %q parses to %q (ok %v), want trace ID %q", tc.name, tp, id, ok, got[0])
				continue
			}
			attempt := false
			if st := tracer.Store().Get(got[0]); st != nil {
				for _, sp := range st.Spans {
					attempt = attempt || sp.Name == "router.attempt" && sp.SpanID == fmt.Sprintf("%016x", parent)
				}
			}
			if !attempt {
				t.Errorf("router, %s: forwarded traceparent %q names no router.attempt span as its parent", tc.name, tp)
			}
		}
	}
}
