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
//   - the fleet view flags the replica as stalled — epoch frozen while
//     the primary's advances — on /debug/fleet,
//   - the routed-read SLO fast-burns and the flight recorder
//     auto-captures a profile, retrievable by ID over HTTP,
//   - every tier's exposition stays valid and carries the new metric
//     families.
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
		// Only the synchronous startup sweep runs: the stalled replica
		// keeps its routing slot, so reads exercise the 503 → failover
		// path instead of being silently steered away.
		HealthInterval: time.Hour,
		Seed:           1,
		Journal:        rtJ,
		FleetInterval:  -1, // sweeps driven explicitly below
	})
	t.Cleanup(rt.Stop)
	rtTS := httptest.NewServer(rt)
	t.Cleanup(rtTS.Close)
	// Continuous profiling on: interval captures are far away, but the
	// 1s trigger poll watches the SLO and the error-spike window.
	rt.FlightRecorder().Start(time.Hour)

	// Healthy phase: Zipfian mixed operations through the router. Writes
	// forward to the primary; reads fan to the replica.
	client := rtTS.Client()
	do := func(req *http.Request) int {
		t.Helper()
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode
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
		if code := do(req); code != http.StatusOK {
			t.Fatalf("healthy op %d (kind %d): status %d", i, op.Kind, code)
		}
	}
	for _, p := range workload.ZipfPairs(fix.g.NumVertices(), 30, 1.2, 11) {
		req, _ := http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/spg?u=%d&v=%d", rtTS.URL, p.U, p.V), nil)
		if code := do(req); code != http.StatusOK {
			t.Fatalf("healthy zipf read %v: status %d", p, code)
		}
	}

	waitCatchUp := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rep.Epoch() < fix.d.Epoch() {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at epoch %d, primary at %d", rep.Epoch(), fix.d.Epoch())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitCatchUp()

	// Baseline fleet sweep: everything reachable, nothing anomalous.
	rt.ScrapeFleetNow()
	if an := rt.FleetAnomalies(); len(an) != 0 {
		t.Fatalf("healthy fleet reports anomalies: %v", an)
	}

	// ---- Incident: cut the replication feed, keep the primary writing.
	stalled.Store(true)
	frozenAt := rep.Epoch()
	fix.mutate(t, 8, 21)
	if fix.d.Epoch() <= frozenAt {
		t.Fatalf("primary epoch did not advance past %d", frozenAt)
	}

	// The replica's tail loop must journal the link failure.
	deadline := time.Now().Add(5 * time.Second)
	for !hasEvent(fetchEvents(t, repTS.URL, "?min_level=error"), "replica", "tail_error", "") {
		if time.Now().After(deadline) {
			t.Fatal("replica journalled no tail_error after the feed was cut")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (a) One read-your-writes request with an explicit trace ID: the
	// stalled replica 503s it (min_epoch unsatisfied), the router fails
	// over to the primary and answers 200. Both tiers must hold an
	// error event carrying that same trace ID.
	const traceID = "incident0123456789abcdef"
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/spg?u=0&v=9&min_epoch=%d", rtTS.URL, fix.d.Epoch()), nil)
	req.Header.Set(obs.TraceHeader, traceID)
	if code := do(req); code != http.StatusOK {
		t.Fatalf("failover read: status %d", code)
	}
	// The replica journals its 503 after the handler has written it, so
	// the router's answer can be here first: wait for the event.
	repErrs := fetchEvents(t, repTS.URL, "?min_level=error")
	for deadline := time.Now().Add(5 * time.Second); !hasEvent(repErrs, "http", "request_error", traceID); {
		if time.Now().After(deadline) {
			t.Fatalf("replica journal lacks http/request_error with trace %s: %+v", traceID, repErrs)
		}
		time.Sleep(10 * time.Millisecond)
		repErrs = fetchEvents(t, repTS.URL, "?min_level=error")
	}
	rtErrs := fetchEvents(t, rtTS.URL, "?min_level=error")
	if !hasEvent(rtErrs, "router", "primary_failover", traceID) {
		t.Fatalf("router journal lacks router/primary_failover with trace %s: %+v", traceID, rtErrs)
	}

	// (c, part 1) A burst of unanswerable reads: min_epoch beyond every
	// backend, so the router's own answer is 503 and the routed-read
	// SLO records bad events until the fast-burn alarm trips.
	farAhead := fix.d.Epoch() + 1000
	for _, p := range workload.ZipfPairs(fix.g.NumVertices(), 12, 1.2, 13) {
		req, _ := http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/spg?u=%d&v=%d&min_epoch=%d", rtTS.URL, p.U, p.V, farAhead), nil)
		if code := do(req); code != http.StatusServiceUnavailable {
			t.Fatalf("unanswerable read %v: status %d, want 503", p, code)
		}
	}
	if !rt.SLOs().FastBurn() {
		t.Fatal("routed-read SLO did not fast-burn after the 503 burst")
	}
	var sloPage struct {
		SLOs []obs.SLOView `json:"slos"`
	}
	fetchJSON(t, rtTS.URL, "/debug/slo", &sloPage)
	burning := false
	for _, v := range sloPage.SLOs {
		burning = burning || v.FastBurn
	}
	if !burning {
		t.Fatalf("/debug/slo shows no fast-burning objective: %+v", sloPage.SLOs)
	}

	// (b) Two more fleet sweeps with the primary still advancing: the
	// replica's epoch is frozen while the tip moves, which must raise
	// the stalled flag (fleetStallScrapes consecutive observations).
	fix.mutate(t, 4, 22)
	rt.ScrapeFleetNow()
	fix.mutate(t, 4, 23)
	rt.ScrapeFleetNow()
	anomalies := rt.FleetAnomalies()
	found := false
	for _, a := range anomalies[repTS.URL] {
		found = found || a == "stalled"
	}
	if !found {
		t.Fatalf("fleet did not flag the frozen replica as stalled: %v", anomalies)
	}
	var fleet struct {
		AnomalyCount int            `json:"anomaly_count"`
		Backends     []FleetBackend `json:"backends"`
	}
	fetchJSON(t, rtTS.URL, "/debug/fleet", &fleet)
	if fleet.AnomalyCount == 0 {
		t.Fatal("/debug/fleet reports zero anomalies mid-incident")
	}
	var repRow, primRow *FleetBackend
	for i := range fleet.Backends {
		switch fleet.Backends[i].Role {
		case "replica":
			repRow = &fleet.Backends[i]
		case "primary":
			primRow = &fleet.Backends[i]
		}
	}
	if repRow == nil || primRow == nil {
		t.Fatalf("/debug/fleet missing a tier: %+v", fleet.Backends)
	}
	if !repRow.Reachable {
		t.Fatal("stalled replica should still be reachable (its mux is up)")
	}
	stalledFlag := false
	for _, a := range repRow.Anomalies {
		stalledFlag = stalledFlag || a == "stalled"
	}
	if !stalledFlag {
		t.Fatalf("replica fleet row lacks the stalled anomaly: %+v", repRow)
	}
	if repRow.Epoch >= primRow.Epoch {
		t.Fatalf("replica epoch %d not behind primary %d in the fleet view",
			repRow.Epoch, primRow.Epoch)
	}

	// (c, part 2) The flight recorder's trigger poll (1s cadence) sees
	// the fast-burning SLO / error spike and auto-captures. The profile
	// must then be retrievable by ID over the router mux.
	deadline = time.Now().Add(8 * time.Second)
	var captured []obs.ProfileInfo
	for len(captured) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight recorder never auto-captured during the incident")
		}
		time.Sleep(50 * time.Millisecond)
		captured = rt.FlightRecorder().Profiles()
	}
	switch captured[0].Trigger {
	case "slo_fast_burn", "error_event_spike":
	default:
		t.Fatalf("capture attributed to %q, want an incident trigger", captured[0].Trigger)
	}
	var profPage struct {
		Profiles []obs.ProfileInfo `json:"profiles"`
	}
	fetchJSON(t, rtTS.URL, "/debug/profiles", &profPage)
	if len(profPage.Profiles) == 0 {
		t.Fatal("/debug/profiles lists nothing after an auto-capture")
	}
	p := profPage.Profiles[0]
	resp, err := http.Get(fmt.Sprintf("%s/debug/profiles/%d", rtTS.URL, p.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch profile %d: status %d", p.ID, resp.StatusCode)
	}
	if kind := resp.Header.Get("X-Qbs-Profile-Kind"); kind != p.Kind {
		t.Fatalf("profile %d kind header %q, want %q", p.ID, kind, p.Kind)
	}
	if len(body) == 0 {
		t.Fatalf("profile %d has an empty body", p.ID)
	}

	// Every mux still renders a valid exposition carrying the new
	// families, and the fleet gauge mirrors the anomaly.
	primText := fetchProm(t, fix.ts.URL)
	repText := fetchProm(t, repTS.URL)
	rtText := fetchProm(t, rtTS.URL)
	for _, fam := range []string{"qbs_events_total", "qbs_slo_burn_rate"} {
		for name, text := range map[string]string{"primary": primText, "replica": repText, "router": rtText} {
			if !strings.Contains(text, fam) {
				t.Fatalf("%s exposition lacks %s", name, fam)
			}
		}
	}
	anomalous := fmt.Sprintf(`qbs_fleet_backend_anomalous{backend="%s",role="replica"}`, repTS.URL)
	if v := seriesValue(t, rtText, anomalous); v != 1 {
		t.Fatalf("fleet anomalous gauge = %v, want 1", v)
	}
	if v := seriesValue(t, rtText, "qbs_fleet_backend_up"); v != 1 {
		t.Fatal("fleet up gauge for the primary should be 1")
	}
}
