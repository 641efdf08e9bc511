package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qbs/internal/obs"
	"qbs/internal/workload"
)

// fetchJSON decodes base+path into out, failing on transport errors or
// non-200 answers.
func fetchJSON(t *testing.T, base, path string, out any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// fetchEvents pulls a tier's /debug/logs page.
func fetchEvents(t *testing.T, base, query string) []obs.EventView {
	t.Helper()
	var page struct {
		Events []obs.EventView `json:"events"`
	}
	fetchJSON(t, base, "/debug/logs"+query, &page)
	return page.Events
}

// hasEvent reports whether evs contains (component, event), optionally
// restricted to a trace ID ("" matches any).
func hasEvent(evs []obs.EventView, component, event, traceID string) bool {
	for _, ev := range evs {
		if ev.Component == component && ev.Event == event &&
			(traceID == "" || ev.TraceID == traceID) {
			return true
		}
	}
	return false
}

// TestIncidentControlPlaneAcrossTiers is the control-plane acceptance
// path: a router + primary + WAL-shipped replica serve a Zipfian mixed
// workload, then the replica's replication feed is cut while the
// primary keeps writing. The diagnostics stack must tell the whole
// story end to end:
//
//   - the replica and the router journal error events that share the
//     failing request's trace ID (/debug/logs on both tiers),
//   - reads no backend can answer yet are the router's own 503,
//   - once the replica's grace window is out its /epoch answers 503, and
//     the router's next probe sweep evicts it: a router/backend_evicted
//     event (reason probe_failed), qbs_router_backend_healthy 0, and
//     reads served by the primary,
//   - every tier's exposition stays valid and carries the journal's
//     qbs_events_total family.
func TestIncidentControlPlaneAcrossTiers(t *testing.T) {
	fix := newPrimaryFixture(t, 1<<20, PrimaryOptions{})

	// The replica tails the primary through a stallable feed: flipping
	// the switch black-holes /replication/ (500s) while the primary's
	// own mux stays up — the shape of a partitioned replication link.
	primURL, err := url.Parse(fix.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(primURL)
	var stalled atomic.Bool
	feed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.Load() && strings.HasPrefix(r.URL.Path, "/replication/") {
			http.Error(w, "injected link outage", http.StatusInternalServerError)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(feed.Close)

	// Per-tier journals so /debug/logs stays attributable even with all
	// three tiers in one process.
	repJ := obs.NewJournal(256, obs.Default)
	rep, err := Start(feed.URL, Options{PollInterval: 5 * time.Millisecond, Journal: repJ})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	repTS := httptest.NewServer(rep.Handler())
	t.Cleanup(repTS.Close)

	rtJ := obs.NewJournal(256, obs.Default)
	rt := NewRouter(fix.ts.URL, []string{repTS.URL}, RouterOptions{
		// Only the synchronous startup sweep runs until the test calls
		// rt.sweep(): the stalled replica keeps its routing slot, so reads
		// exercise the 503 → failover path instead of being silently
		// steered away.
		HealthInterval: time.Hour,
		Seed:           1,
		Journal:        rtJ,
	})
	t.Cleanup(rt.Stop)
	rtTS := httptest.NewServer(rt)
	t.Cleanup(rtTS.Close)

	// Healthy phase: Zipfian mixed operations through the router. Writes
	// forward to the primary; reads fan to the replica.
	client := rtTS.Client()
	do := func(req *http.Request) *http.Response {
		t.Helper()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp
	}
	for i, op := range workload.MixedOps(fix.g, 30, 0.4, 11) {
		var req *http.Request
		switch op.Kind {
		case workload.OpInsert:
			body := strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, op.U, op.V))
			req, _ = http.NewRequest(http.MethodPost, rtTS.URL+"/edges", body)
			req.Header.Set("Content-Type", "application/json")
		case workload.OpDelete:
			req, _ = http.NewRequest(http.MethodDelete,
				fmt.Sprintf("%s/edges?u=%d&v=%d", rtTS.URL, op.U, op.V), nil)
		default:
			req, _ = http.NewRequest(http.MethodGet,
				fmt.Sprintf("%s/spg?u=%d&v=%d", rtTS.URL, op.U, op.V), nil)
		}
		if code := do(req).StatusCode; code != http.StatusOK {
			t.Fatalf("healthy op %d (kind %d): status %d", i, op.Kind, code)
		}
	}
	for _, p := range workload.ZipfPairs(fix.g.NumVertices(), 30, 1.2, 11) {
		req, _ := http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/spg?u=%d&v=%d", rtTS.URL, p.U, p.V), nil)
		if code := do(req).StatusCode; code != http.StatusOK {
			t.Fatalf("healthy zipf read %v: status %d", p, code)
		}
	}
	waitFor(t, 5*time.Second, "the replica to catch up", func() bool { return rep.Epoch() >= fix.d.Epoch() })

	// ---- Incident: cut the replication feed, keep the primary writing.
	stalled.Store(true)
	frozenAt := rep.Epoch()
	fix.mutate(t, 8, 21)
	if fix.d.Epoch() <= frozenAt {
		t.Fatalf("primary epoch did not advance past %d", frozenAt)
	}

	// The replica's tail loop must journal the link failure.
	waitFor(t, 5*time.Second, "a replica/tail_error event after the feed was cut", func() bool {
		return hasEvent(fetchEvents(t, repTS.URL, "?min_level=error"), "replica", "tail_error", "")
	})

	// (a) One read-your-writes request with an explicit trace ID: the
	// stalled replica 503s it (min_epoch unsatisfied), the router fails
	// over to the primary and answers 200. Both tiers must hold an
	// error event carrying that same trace ID.
	const traceID = "incident0123456789abcdef"
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/spg?u=0&v=9&min_epoch=%d", rtTS.URL, fix.d.Epoch()), nil)
	req.Header.Set(obs.TraceHeader, traceID)
	if code := do(req).StatusCode; code != http.StatusOK {
		t.Fatalf("failover read: status %d", code)
	}
	// The replica journals its 503 after the handler has written it, so
	// the router's answer can be here first: wait for the event.
	waitFor(t, 5*time.Second, "http/request_error with trace "+traceID+" in the replica's journal", func() bool {
		return hasEvent(fetchEvents(t, repTS.URL, "?min_level=error"), "http", "request_error", traceID)
	})
	rtErrs := fetchEvents(t, rtTS.URL, "?min_level=error")
	if !hasEvent(rtErrs, "router", "primary_failover", traceID) {
		t.Fatalf("router journal lacks router/primary_failover with trace %s: %+v", traceID, rtErrs)
	}

	// (b) A burst of unanswerable reads: min_epoch beyond every backend,
	// so the router's own answer is the retriable 503.
	farAhead := fix.d.Epoch() + 1000
	for _, p := range workload.ZipfPairs(fix.g.NumVertices(), 12, 1.2, 13) {
		req, _ := http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/spg?u=%d&v=%d&min_epoch=%d", rtTS.URL, p.U, p.V, farAhead), nil)
		if code := do(req).StatusCode; code != http.StatusServiceUnavailable {
			t.Fatalf("unanswerable read %v: status %d, want 503", p, code)
		}
	}

	// (c) Past its grace window the frozen replica fails its /epoch probe,
	// and the router's next sweep takes it out of rotation.
	waitFor(t, 10*time.Second, "the stalled replica's /epoch to answer 503", func() bool {
		resp, err := http.Get(repTS.URL + "/epoch")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	rt.sweep()
	evicted := false
	for _, ev := range fetchEvents(t, rtTS.URL, "?component=router") {
		evicted = evicted || ev.Event == "backend_evicted" &&
			ev.Attrs["backend"] == repTS.URL && ev.Attrs["role"] == "replica" && ev.Attrs["reason"] == "probe_failed"
	}
	if !evicted {
		t.Fatalf("router journal lacks router/backend_evicted (probe_failed) for %s: %+v",
			repTS.URL, fetchEvents(t, rtTS.URL, "?component=router"))
	}
	req, _ = http.NewRequest(http.MethodGet, rtTS.URL+"/spg?u=0&v=9", nil)
	if resp := do(req); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Qbs-Backend") != fix.ts.URL {
		t.Fatalf("read after eviction: status %d from %q, want 200 from the primary", resp.StatusCode, resp.Header.Get("X-Qbs-Backend"))
	}

	// Every mux still renders a valid exposition carrying the journal's
	// family, and the router's routing gauges show the eviction.
	primText := fetchProm(t, fix.ts.URL)
	repText := fetchProm(t, repTS.URL)
	rtText := fetchProm(t, rtTS.URL)
	for name, text := range map[string]string{"primary": primText, "replica": repText, "router": rtText} {
		if !strings.Contains(text, "qbs_events_total") {
			t.Fatalf("%s exposition lacks qbs_events_total", name)
		}
	}
	for series, want := range map[string]float64{
		fmt.Sprintf(`qbs_router_backend_healthy{backend="%s",role="replica"}`, repTS.URL):  0,
		fmt.Sprintf(`qbs_router_backend_healthy{backend="%s",role="primary"}`, fix.ts.URL): 1,
	} {
		if v := seriesValue(t, rtText, series); v != want {
			t.Fatalf("%s = %v, want %v", series, v, want)
		}
	}
}
