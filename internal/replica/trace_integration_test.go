package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"qbs/internal/graph"
	"qbs/internal/obs"
)

// fetchTraceJSON pulls /debug/traces/{id} from base, returning nil on
// 404. Trace retention happens in middleware after the response body is
// written, so callers poll with waitForTrace rather than calling this
// once.
func fetchTraceJSON(t *testing.T, base, id string) *obs.StoredTrace {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: status %d", id, resp.StatusCode)
	}
	var st obs.StoredTrace
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode trace %s: %v", id, err)
	}
	return &st
}

// waitForTrace polls the merged trace until every span in want has been
// retained (the tiers finish their spans asynchronously with respect to
// the proxied response).
func waitForTrace(t *testing.T, base, id string, want ...string) *obs.StoredTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fetchTraceJSON(t, base, id)
		if st != nil {
			names := map[string]int{}
			for _, sp := range st.Spans {
				names[sp.Name]++
			}
			ok := true
			for _, w := range want {
				if names[w] == 0 {
					ok = false
				}
			}
			if ok {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never assembled spans %v (got %+v)", id, want, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// spanByName returns the first span with the given name, failing when
// absent.
func spanByName(t *testing.T, st *obs.StoredTrace, name string) obs.StoredSpan {
	t.Helper()
	for _, sp := range st.Spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("trace %s has no span %q: %+v", st.TraceID, name, st.Spans)
	return obs.StoredSpan{}
}

// attrInt reads an integer attribute back out of the JSON round-trip
// (numbers decode as float64).
func attrInt(sp obs.StoredSpan, key string) (int64, bool) {
	v, ok := sp.Attrs[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

// TestTraceTreeAcrossTiersWithFailover is the tentpole acceptance path:
// a sampled read through the router hits a replica that answers 503,
// fails over to the primary, and the resulting trace — fetched from the
// router's /debug/traces/{id} — is one tree: the router root, both
// per-attempt child spans (backend + attempt + status attrs), the
// primary server's root parented to the successful attempt via
// traceparent, and the engine's stage spans beneath it. The retry is
// counted in the router's exposition.
func TestTraceTreeAcrossTiersWithFailover(t *testing.T) {
	fix := newPrimaryFixture(t, 1<<20, PrimaryOptions{})

	// A lame replica: probes answer with the primary's tip epoch so it
	// stays in the read pool, but every read is 503 — the shape of a
	// replica stuck behind min_epoch, which must trigger a retry.
	lame := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/epoch" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"epoch":%d}`, fix.d.Epoch())
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(lame.Close)

	// One synchronous sweep at construction marks the lame replica
	// healthy; the hour-long interval keeps routing deterministic after.
	rt := NewRouter(fix.ts.URL, []string{lame.URL}, RouterOptions{
		HealthInterval: time.Hour, Seed: 1,
	})
	t.Cleanup(rt.Stop)
	rtTS := httptest.NewServer(rt)
	t.Cleanup(rtTS.Close)
	if h := rt.ReplicaHealth(); len(h) != 1 || !h[0] {
		t.Fatalf("lame replica should have probed healthy, got %v", h)
	}

	// The client forces sampling via the W3C sampled flag: every tier
	// must then retain its spans regardless of latency.
	const traceID = "deadbeefcafef00d"
	req, _ := http.NewRequest(http.MethodGet, rtTS.URL+"/spg?u=0&v=5", nil)
	req.Header.Set(obs.TraceparentHeader, "00-0000000000000000"+traceID+"-00000000000000aa-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed read: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("response trace ID %q, want %q", got, traceID)
	}

	st := waitForTrace(t, rtTS.URL, traceID, "router", "router.attempt", "/spg", "stage:sketch")
	if st.TraceID != traceID {
		t.Fatalf("merged trace ID %q, want %q", st.TraceID, traceID)
	}
	if st.Root != "router" {
		t.Fatalf("merged trace root %q, want router (router view wins the merge)", st.Root)
	}

	// The two attempts hang under the router root and name who was tried.
	routerRoot := spanByName(t, st, "router")
	if routerRoot.ParentID != "00000000000000aa" {
		t.Fatalf("router root parent %q, want the client's traceparent span", routerRoot.ParentID)
	}
	var attempts []obs.StoredSpan
	for _, sp := range st.Spans {
		if sp.Name == "router.attempt" {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("got %d router.attempt spans, want 2 (replica then primary): %+v", len(attempts), attempts)
	}
	byAttempt := map[int64]obs.StoredSpan{}
	for _, sp := range attempts {
		if sp.ParentID != routerRoot.SpanID {
			t.Fatalf("attempt span %s parented to %q, want router root %s", sp.SpanID, sp.ParentID, routerRoot.SpanID)
		}
		n, ok := attrInt(sp, "attempt")
		if !ok {
			t.Fatalf("attempt span %s missing attempt attr: %v", sp.SpanID, sp.Attrs)
		}
		byAttempt[n] = sp
	}
	first, second := byAttempt[0], byAttempt[1]
	if first.Attrs["backend"] != lame.URL {
		t.Fatalf("attempt 0 backend %v, want the lame replica %s", first.Attrs["backend"], lame.URL)
	}
	if n, _ := attrInt(first, "status"); n != http.StatusServiceUnavailable {
		t.Fatalf("attempt 0 status %d, want 503", n)
	}
	if second.Attrs["backend"] != fix.ts.URL {
		t.Fatalf("attempt 1 backend %v, want the primary %s", second.Attrs["backend"], fix.ts.URL)
	}
	if n, _ := attrInt(second, "status"); n != http.StatusOK {
		t.Fatalf("attempt 1 status %d, want 200", n)
	}

	// The primary's server root joined the tree through traceparent: its
	// parent is the successful attempt span, and the engine's stage
	// breakdown hangs beneath it.
	serverRoot := spanByName(t, st, "/spg")
	if serverRoot.ParentID != second.SpanID {
		t.Fatalf("server root parent %q, want attempt-1 span %s", serverRoot.ParentID, second.SpanID)
	}
	for _, stage := range []string{"stage:sketch", "stage:expand", "stage:extract", "stage:serialize"} {
		sp := spanByName(t, st, stage)
		if sp.ParentID != serverRoot.SpanID {
			t.Fatalf("%s parented to %q, want server root %s", stage, sp.ParentID, serverRoot.SpanID)
		}
	}

	// Every span resolves into one tree: parents are either in-trace or
	// the client's external traceparent span.
	ids := map[string]bool{"00000000000000aa": true}
	for _, sp := range st.Spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range st.Spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			t.Fatalf("span %s (%s) has dangling parent %q", sp.SpanID, sp.Name, sp.ParentID)
		}
	}

	// The failover is counted in the router's exposition.
	rtText := fetchProm(t, rtTS.URL)
	if !strings.Contains(rtText, "\nqbs_router_retries_total 1\n") {
		t.Fatalf("retries counter does not read 1:\n%s", rtText)
	}

	// Build info rides along on the router mux (process-wide registry).
	if !strings.Contains(rtText, "qbs_build_info{") {
		t.Fatal("qbs_build_info missing from the router exposition")
	}
}

// TestTraceCapturesWALAppend drives a sampled write through the router
// and asserts the primary's WAL append shows up as a child span in the
// trace fetched back through the router.
func TestTraceCapturesWALAppend(t *testing.T) {
	fix := newPrimaryFixture(t, 1<<20, PrimaryOptions{})
	rt := NewRouter(fix.ts.URL, nil, RouterOptions{HealthInterval: time.Hour, Seed: 1})
	t.Cleanup(rt.Stop)
	rtTS := httptest.NewServer(rt)
	t.Cleanup(rtTS.Close)

	// Pick a non-edge so the insert actually applies (and therefore logs).
	u, v := graph.V(150), graph.V(151)
	for fix.d.HasEdge(u, v) {
		v++
	}

	const traceID = "feedfacecafebeef"
	body := strings.NewReader(`{"u":` + strconv.Itoa(int(u)) + `,"v":` + strconv.Itoa(int(v)) + `}`)
	req, _ := http.NewRequest(http.MethodPost, rtTS.URL+"/edges", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, "00-0000000000000000"+traceID+"-0000000000000001-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed write: status %d", resp.StatusCode)
	}

	st := waitForTrace(t, rtTS.URL, traceID, "router", "router.attempt", "/edges", "wal.append")
	edges := spanByName(t, st, "/edges")
	wal := spanByName(t, st, "wal.append")
	if wal.ParentID != edges.SpanID {
		t.Fatalf("wal.append parented to %q, want the /edges server root %s", wal.ParentID, edges.SpanID)
	}
	if _, ok := attrInt(wal, "epoch"); !ok {
		t.Fatalf("wal.append span missing epoch attr: %v", wal.Attrs)
	}
}
