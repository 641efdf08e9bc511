package server

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qbs"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// TestTraceIDEchoed: every response carries X-Qbs-Trace-Id — the
// client's when it sent one, a fresh non-empty ID otherwise.
func TestTraceIDEchoed(t *testing.T) {
	s := testServer(t)

	req := httptest.NewRequest("GET", "/spg?u=0&v=3", nil)
	req.Header.Set(obs.TraceHeader, "deadbeefcafe0123")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.TraceHeader); got != "deadbeefcafe0123" {
		t.Fatalf("client trace ID not echoed: got %q", got)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/distance?u=0&v=3", nil))
	if got := rec.Header().Get(obs.TraceHeader); got == "" {
		t.Fatal("no trace ID minted for a bare request")
	}
}

// TestHeadMetricsAndHealthz: HEAD answers 200 with no body on the
// probe endpoints, without rendering either payload.
func TestHeadMetricsAndHealthz(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/metrics", "/healthz"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("HEAD", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("HEAD %s: status %d", path, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("HEAD %s: body %q, want empty", path, rec.Body.String())
		}
	}
}

// TestPrometheusExposition: /metrics is a valid Prometheus text
// rendering that carries the per-endpoint counters, the stage
// histograms and the process-wide series, with no duplicate series;
// ?format=prometheus and a plain GET are the same rendering.
func TestPrometheusExposition(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		get(t, s, "/spg?u=0&v=3", nil)
	}
	get(t, s, "/spg?u=0&v=99", nil) // one 400

	text := scrape(t, s, "/metrics?format=prometheus")
	wantLines(t, text,
		`qbs_http_requests_total{endpoint="/spg"} 4`,
		`qbs_http_errors_total{endpoint="/spg"} 1`,
		`qbs_query_stage_ns_count{endpoint="/spg",stage="sketch"} 3`,
	)
	if !strings.Contains(text, "\nqbs_goroutines ") {
		t.Fatalf("exposition missing qbs_goroutines:\n%s", text)
	}

	// A plain GET, with or without a text Accept header, is the same
	// rendering: the counters it carries did not move in between.
	plain := scrape(t, s, "/metrics")
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	for _, other := range []string{plain, rec.Body.String()} {
		wantLines(t, other,
			`qbs_http_requests_total{endpoint="/spg"} 4`,
			`qbs_http_errors_total{endpoint="/spg"} 1`,
			`qbs_query_stage_ns_count{endpoint="/spg",stage="sketch"} 3`,
		)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Accept: application/json got content type %q", ct)
	}
}

// TestStageAndEngineSeriesAdvance: queries move their endpoint's stage
// histograms and the engine counters; error responses do not. /distance
// records every stage of its search but extraction, which it never runs.
func TestStageAndEngineSeriesAdvance(t *testing.T) {
	s := testServer(t)
	get(t, s, "/spg?u=0&v=3", nil)
	get(t, s, "/paths?u=0&v=3", nil)

	for i := obs.Stage(0); i < obs.NumStages; i++ {
		for name, ss := range map[string]*stageSeries{"/spg": s.spgStages, "/paths": s.pathsStages} {
			if c := ss[i].Count(); c != 1 {
				t.Fatalf("%s stage %s: %d observations, want 1", name, i, c)
			}
		}
		if c := s.distanceStages[i].Count(); c != 0 {
			t.Fatalf("/distance stage %s: %d observations before any /distance", i, c)
		}
	}
	if s.engEntries.Load() == 0 {
		t.Fatal("label-entry counter did not advance")
	}

	entries := s.engEntries.Load()
	get(t, s, "/distance?u=0&v=3", nil)
	for i := obs.Stage(0); i < obs.NumStages; i++ {
		want := uint64(1)
		if i == obs.StageExtract {
			want = 0
		}
		if c := s.distanceStages[i].Count(); c != want {
			t.Fatalf("/distance stage %s: %d observations, want %d", i, c, want)
		}
	}
	if s.engEntries.Load() == entries {
		t.Fatal("/distance did not advance the label-entry counter")
	}

	before := s.spgStages[obs.StageSketch].Count()
	get(t, s, "/spg?u=0&v=99", nil) // 400: no query ran
	if after := s.spgStages[obs.StageSketch].Count(); after != before {
		t.Fatal("error response recorded a stage span")
	}
}

// TestStagesCoverLargeAnswer: on an answer of several hundred edges the
// five stages account for the handler's time. Assembling the response —
// canonical sort, layering, path count, encoding — is the serialize
// stage's; while that stage began at the encoder, half of such a
// request belonged to no stage. The best of a run of warm requests is
// judged: a preemption between two stages says nothing about the
// accounting.
func TestStagesCoverLargeAnswer(t *testing.T) {
	ix, err := qbs.BuildIndex(graph.Grid(15, 15), qbs.Options{NumLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ix)
	isolatedTracer(s) // the slow log is read off the tracer's retained traces
	var spg SPGResponse
	for i := 0; i < 32; i++ {
		get(t, s, "/spg?u=0&v=224", &spg)
	}
	if len(spg.Edges) < 200 {
		t.Fatalf("answer has %d edges, want at least 200", len(spg.Edges))
	}
	var best float64
	for _, e := range s.Tracer().SlowLog(0).Entries {
		st := e.Stages
		best = max(best, float64(st.ParseNs+st.SketchNs+st.ExpandNs+st.ExtractNs+st.SerializeNs)/float64(e.DurationNs))
	}
	if best < 0.8 {
		t.Fatalf("stages sum to at most %.2f of the request, want 0.8", best)
	}

	// The stages are spans recorded when they were measured, not laid
	// end to end afterwards: in order, disjoint, and inside the request.
	var st obs.StoredTrace
	get(t, s, s.Tracer().SlowLog(1).Entries[0].Trace, &st)
	root := st.Spans[0]
	at := root.StartUnixNs
	for stage := obs.Stage(0); stage < obs.NumStages; stage++ {
		i := slices.IndexFunc(st.Spans, func(sp obs.StoredSpan) bool { return sp.Name == stage.SpanName() })
		if i < 0 {
			t.Fatalf("no %s span in %+v", stage.SpanName(), st.Spans)
		}
		sp := st.Spans[i]
		if sp.StartUnixNs < at {
			t.Fatalf("%s starts at %d, before %d where the span before it (or the request) ends", sp.Name, sp.StartUnixNs, at)
		}
		at = sp.StartUnixNs + sp.DurationNs
	}
	if end := root.StartUnixNs + root.DurationNs; at > end {
		t.Fatalf("stage:serialize ends at %d, after the request's end %d", at, end)
	}
}

// TestSlowLogIsViewOfRetainedSpans: every field of every /debug/slowlog
// entry is what a from-scratch reading of the trace it links to gives,
// on a mix of queries, a refused request and (mutable) a write; and the
// entries outlive the span store turning over under head-sampled fast
// traces.
func TestSlowLogIsViewOfRetainedSpans(t *testing.T) {
	mutable, _ := testMutableServer(t)
	for name, s := range map[string]*Server{"static": testServer(t), "mutable": mutable} {
		tracer := isolatedTracer(s) // retains everything: every request is slow
		for _, path := range []string{"/spg?u=0&v=3", "/paths?u=0&v=3", "/distance?u=0&v=3", "/spg?u=0&v=99", "/spg?u=3&v=3"} {
			get(t, s, path, nil)
		}
		want := 5
		if s.writable {
			do(t, s, "POST", "/edges", `{"u":1,"v":2}`, nil)
			want++
		}
		var log SlowLogResponse
		get(t, s, "/debug/slowlog", &log)
		if len(log.Entries) != want {
			t.Fatalf("%s: %d slow entries, want %d", name, len(log.Entries), want)
		}
		for _, e := range log.Entries {
			var tr struct {
				TraceID string `json:"trace_id"`
				Root    string `json:"root"`
				Spans   []struct {
					Name        string             `json:"name"`
					StartUnixNs int64              `json:"start_unix_ns"`
					DurationNs  int64              `json:"duration_ns"`
					ParentID    string             `json:"parent_id"`
					Attrs       map[string]float64 `json:"attrs"`
				} `json:"spans"`
			}
			if resp := get(t, s, "/debug/traces/"+e.TraceID, &tr); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %s: status %d", name, e.Trace, resp.StatusCode)
			}
			read := obs.SlowEntry{TraceID: tr.TraceID, Trace: "/debug/traces/" + tr.TraceID, Endpoint: tr.Root}
			for _, sp := range tr.Spans {
				switch sp.Name {
				case tr.Root:
					if sp.ParentID != "" {
						t.Fatalf("%s: root span of %s has a parent", name, e.TraceID)
					}
					read.Status = int(sp.Attrs["status"])
					read.UnixMs = (sp.StartUnixNs + sp.DurationNs) / 1e6
					read.DurationNs = sp.DurationNs
					_, read.HasQuery = sp.Attrs["u"]
					read.U, read.V, read.Dist = int64(sp.Attrs["u"]), int64(sp.Attrs["v"]), int32(sp.Attrs["dist"])
				case "stage:parse":
					read.Stages.ParseNs = sp.DurationNs
				case "stage:sketch":
					read.Stages.SketchNs = sp.DurationNs
					read.LabelEntries = int64(sp.Attrs["label_entries"])
				case "stage:expand":
					read.Stages.ExpandNs = sp.DurationNs
					read.ArcsScanned = int64(sp.Attrs["arcs_scanned"])
				case "stage:extract":
					read.Stages.ExtractNs = sp.DurationNs
				case "stage:serialize":
					read.Stages.SerializeNs = sp.DurationNs
				}
			}
			if e != read {
				t.Errorf("%s: slow entry differs from its trace:\nentry %+v\ntrace %+v", name, e, read)
			}
			if e.HasQuery != (e.Endpoint != "/edges" && e.Status == 200) || e.HasQuery && e.LabelEntries == 0 && e.U != e.V {
				t.Errorf("%s: entry %+v: has_query on the wrong requests, or without engine counters", name, e)
			}
		}

		tracer.SetSlowThreshold(time.Hour) // from here on requests are fast
		tracer.SetHeadEvery(1)             // and retained all the same
		for i := 0; i < 2*32; i++ {        // twice isolatedTracer's span store
			get(t, s, "/distance?u=0&v=3", nil)
		}
		var after SlowLogResponse
		get(t, s, "/debug/slowlog", &after)
		if !slices.Equal(after.Entries, log.Entries) {
			t.Errorf("%s: slow log changed while the span store turned over:\n%+v\n%+v", name, log.Entries, after.Entries)
		}
		if resp := get(t, s, log.Entries[0].Trace, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %s still resolves (status %d): the span store did not turn over", name, log.Entries[0].Trace, resp.StatusCode)
		}
	}
}

// TestSlowLogEndpoint: with a zero threshold every query lands in the
// slowlog, newest first, carrying its trace ID and engine stats; the
// ring stays bounded under concurrent load.
func TestSlowLogEndpoint(t *testing.T) {
	s := testServer(t)
	isolatedTracer(s)
	s.SetSlowLogThreshold(0)

	req := httptest.NewRequest("GET", "/spg?u=0&v=3", nil)
	req.Header.Set(obs.TraceHeader, "feedface00000001")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	var body SlowLogResponse
	get(t, s, "/debug/slowlog", &body)
	if body.Capacity != obs.SlowLogCapacity {
		t.Fatalf("capacity %d, want %d", body.Capacity, obs.SlowLogCapacity)
	}
	if len(body.Entries) != 1 {
		t.Fatalf("%d entries, want 1", len(body.Entries))
	}
	e := body.Entries[0]
	if e.TraceID != "feedface00000001" || e.Endpoint != "/spg" || e.Status != 200 {
		t.Fatalf("entry %+v", e)
	}
	if !e.HasQuery || e.U != 0 || e.V != 3 || e.Dist != 2 {
		t.Fatalf("query fields not filled: %+v", e)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/spg?u=0&v=3", nil))
			}
		}()
	}
	wg.Wait()
	get(t, s, "/debug/slowlog", &body)
	if len(body.Entries) != obs.SlowLogCapacity {
		t.Fatalf("%d entries after overflow, want %d", len(body.Entries), obs.SlowLogCapacity)
	}
}

// TestDirectedQueriesFeedEngineCounters: a directed server's queries
// reach the same engine counters and trace fields as an undirected
// one's — the stats are one type — so /metrics shows the arcs they
// scanned (it read 0 while the directed engine kept no such count).
func TestDirectedQueriesFeedEngineCounters(t *testing.T) {
	s := testDirectedServer(t)
	isolatedTracer(s)
	s.SetSlowLogThreshold(0)
	var spg SPGResponse
	get(t, s, "/spg?u=1&v=4", &spg)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	var arcs int64 = -1
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "qbs_query_arcs_scanned_total "); ok {
			arcs, _ = strconv.ParseInt(rest, 10, 64)
		}
	}
	if arcs <= 0 {
		t.Fatalf("qbs_query_arcs_scanned_total = %d after a directed /spg, want > 0:\n%s", arcs, rec.Body.String())
	}
	if spg.ArcsScanned != arcs || spg.Coverage != "directed" {
		t.Fatalf("/spg body reports arcs_scanned %d, coverage %q; the engine counted %d", spg.ArcsScanned, spg.Coverage, arcs)
	}

	var body SlowLogResponse
	get(t, s, "/debug/slowlog", &body)
	if len(body.Entries) != 1 || body.Entries[0].ArcsScanned != arcs {
		t.Fatalf("slowlog %+v, want one entry with ArcsScanned %d", body.Entries, arcs)
	}
}
