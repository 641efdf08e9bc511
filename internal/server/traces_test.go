package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qbs/internal/obs"
)

// isolatedTracer swaps in a per-server tracer that retains every trace,
// so assertions never depend on the process-wide DefaultTracer's state.
func isolatedTracer(s *Server) *obs.Tracer {
	tr := obs.NewTracer(32)
	tr.SetSlowThreshold(0) // retain everything
	s.SetTracer(tr)
	return tr
}

// TestDebugTracesEndpoints: a traced request shows up in the
// /debug/traces listing and resolves by ID to the full span tree —
// server root with status attr plus the engine stage spans.
func TestDebugTracesEndpoints(t *testing.T) {
	s := testServer(t)
	isolatedTracer(s)

	req := httptest.NewRequest("GET", "/spg?u=0&v=3", nil)
	req.Header.Set(obs.TraceHeader, "cafe000000000001")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	var list TracesResponse
	get(t, s, "/debug/traces", &list)
	if list.Count != 1 || len(list.Traces) != 1 {
		t.Fatalf("listing %+v, want exactly the one retained trace", list)
	}
	sum := list.Traces[0]
	if sum.TraceID != "cafe000000000001" || sum.Root != "/spg" || sum.Spans < 2 {
		t.Fatalf("summary %+v", sum)
	}

	var st obs.StoredTrace
	get(t, s, "/debug/traces/cafe000000000001", &st)
	if st.TraceID != "cafe000000000001" || st.Root != "/spg" {
		t.Fatalf("trace %+v", st)
	}
	var rootID string
	for _, sp := range st.Spans {
		if sp.Name == "/spg" {
			rootID = sp.SpanID
			if v, ok := sp.Attrs["status"]; !ok || v != float64(200) {
				t.Fatalf("root status attr %v", sp.Attrs)
			}
		}
	}
	if rootID == "" {
		t.Fatalf("no root span in %+v", st.Spans)
	}
	stages := 0
	for _, sp := range st.Spans {
		if sp.Name == "stage:sketch" || sp.Name == "stage:expand" {
			stages++
			if sp.ParentID != rootID {
				t.Fatalf("stage span %+v not parented to root %s", sp, rootID)
			}
		}
	}
	if stages != 2 {
		t.Fatalf("%d stage spans, want sketch and expand", stages)
	}
}

// TestDebugTracesFilters: n, min_ms and error narrow the listing, bad
// parameters are 400, unknown IDs are 404.
func TestDebugTracesFilters(t *testing.T) {
	s := testServer(t)
	isolatedTracer(s)

	get(t, s, "/spg?u=0&v=3", nil)
	get(t, s, "/spg?u=0&v=99", nil) // 400: parse error, no stage spans

	var list TracesResponse
	get(t, s, "/debug/traces?n=1", &list)
	if list.Count != 1 {
		t.Fatalf("n=1 returned %d traces", list.Count)
	}
	get(t, s, "/debug/traces?min_ms=60000", &list)
	if list.Count != 0 {
		t.Fatalf("min_ms=60000 returned %d traces, want 0", list.Count)
	}

	for _, bad := range []string{"/debug/traces?n=0", "/debug/traces?n=1025", "/debug/traces?n=x", "/debug/traces?min_ms=-1"} {
		if resp := get(t, s, bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp := get(t, s, "/debug/traces/ffffffffffffffff", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp.StatusCode)
	}
}

// TestSlowLogTraceLinkAndLimit: slow entries link to their retained
// trace, and ?n= bounds the listing (newest first) with out-of-range
// values rejected.
func TestSlowLogTraceLinkAndLimit(t *testing.T) {
	s := testServer(t)
	isolatedTracer(s)
	s.SetSlowLogThreshold(0) // every request is "slow"

	for i := 0; i < 5; i++ {
		get(t, s, "/spg?u=0&v=3", nil)
	}

	var body SlowLogResponse
	get(t, s, "/debug/slowlog", &body)
	if len(body.Entries) != 5 {
		t.Fatalf("%d entries, want 5", len(body.Entries))
	}
	e := body.Entries[0]
	if e.Trace != "/debug/traces/"+e.TraceID {
		t.Fatalf("slow entry trace link %q does not point at its trace %q", e.Trace, e.TraceID)
	}
	// The link resolves: a slow entry always clears the sampling bar.
	var st obs.StoredTrace
	if resp := get(t, s, e.Trace, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow entry trace link %s: status %d", e.Trace, resp.StatusCode)
	}
	if st.TraceID != e.TraceID {
		t.Fatalf("trace link resolved to %q, want %q", st.TraceID, e.TraceID)
	}

	get(t, s, "/debug/slowlog?n=2", &body)
	if len(body.Entries) != 2 {
		t.Fatalf("n=2 returned %d entries", len(body.Entries))
	}
	for _, bad := range []string{"/debug/slowlog?n=0", "/debug/slowlog?n=1025", "/debug/slowlog?n=abc"} {
		if resp := get(t, s, bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestExemplarOnRetainedTrace: a retained trace is found by its ID under
// /debug/traces, not through the exposition: the endpoint's latency and
// stage series it was observed into render with no exemplar suffix, in a
// scrape a text-format parser accepts.
func TestExemplarOnRetainedTrace(t *testing.T) {
	s := testServer(t)
	tr := isolatedTracer(s)

	req := httptest.NewRequest("GET", "/spg?u=0&v=3", nil)
	req.Header.Set(obs.TraceHeader, "cafe000000000099")
	s.ServeHTTP(httptest.NewRecorder(), req)
	if tr.Store().Get("cafe000000000099") == nil {
		t.Fatal("the trace was not retained")
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	body := rec.Body.String()
	if err := obs.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, series := range []string{`qbs_http_request_ns{endpoint="/spg",quantile="0.5"} `, `qbs_query_stage_ns{endpoint="/spg",stage="sketch",quantile="0.5"} `} {
		i := strings.Index(body, series)
		if i < 0 {
			t.Fatalf("exposition lacks %q:\n%s", series, body)
		}
		if line, _, _ := strings.Cut(body[i:], "\n"); len(strings.Fields(line)) != 2 {
			t.Fatalf("sample %q carries more than its value", line)
		}
	}
}
