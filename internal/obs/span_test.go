package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// finish is Tracer.Finish read as (trace ID, kept).
func finish(tr *Tracer, tb *TraceBuf) (string, bool) {
	if st := tr.Finish(tb); st != nil {
		return st.TraceID, true
	}
	return "", false
}

func TestSpanTreeAndStorage(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(0) // retain everything

	tb := tr.Begin("GET /spg", "deadbeef00000001", 0, false)
	root := tb.Root()
	if root == nil || root.Parent != 0 {
		t.Fatalf("root = %+v", root)
	}
	child := tb.StartSpan("stage:expand")
	child.SetInt("arcs", 42)
	child.End()
	grand := tb.StartSpanUnder(child.ID, "wal.append")
	grand.SetStr("op", "insert")
	grand.End()

	id, kept := finish(tr, tb)
	if !kept || id != "deadbeef00000001" {
		t.Fatalf("Finish = %q, %v", id, kept)
	}
	st := tr.Store().Get(id)
	if st == nil {
		t.Fatal("trace not stored")
	}
	if len(st.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(st.Spans))
	}
	if st.Root != "GET /spg" || st.Spans[0].ParentID != "" {
		t.Fatalf("root span = %+v", st.Spans[0])
	}
	if st.Spans[1].ParentID != st.Spans[0].SpanID {
		t.Fatalf("child parent = %q, want root %q", st.Spans[1].ParentID, st.Spans[0].SpanID)
	}
	if st.Spans[2].ParentID != st.Spans[1].SpanID {
		t.Fatalf("grandchild parent = %q, want %q", st.Spans[2].ParentID, st.Spans[1].SpanID)
	}
	if got := st.Spans[1].Attrs["arcs"]; got != int64(42) {
		t.Fatalf("attr arcs = %v (%T)", got, got)
	}
	if got := st.Spans[2].Attrs["op"]; got != "insert" {
		t.Fatalf("attr op = %v", got)
	}
}

func TestTailSamplingDecisions(t *testing.T) {
	tr := NewTracer(64)
	tr.SetSlowThreshold(50 * time.Millisecond)

	// Fast, clean, unforced, no head sampling: dropped.
	tb := tr.Begin("q", "", 0, false)
	if id, kept := finish(tr, tb); kept {
		t.Fatalf("fast trace kept as %q", id)
	}

	// Errored: kept, ID minted lazily.
	tb = tr.Begin("q", "", 0, false)
	tb.StartSpan("attempt").Fail()
	id, kept := finish(tr, tb)
	if !kept || id == "" {
		t.Fatalf("errored trace dropped (id=%q kept=%v)", id, kept)
	}
	if st := tr.Store().Get(id); st == nil || !st.Error {
		t.Fatalf("stored errored trace = %+v", st)
	}

	// Slow: kept.
	tb = tr.Begin("q", "", 0, false)
	tb.Root().Start = time.Now().Add(-time.Second) // simulate a 1s request
	if _, kept := finish(tr, tb); !kept {
		t.Fatal("slow trace dropped")
	}

	// Forced (upstream sampled flag): kept.
	tb = tr.Begin("q", "", 0, true)
	if !tb.Sampled() {
		t.Fatal("forced trace not Sampled()")
	}
	if _, kept := finish(tr, tb); !kept {
		t.Fatal("forced trace dropped")
	}

	// Head sampling: 1 in 4 kept.
	tr2 := NewTracer(64)
	tr2.SetSlowThreshold(time.Hour)
	tr2.SetHeadEvery(4)
	keptN := 0
	for i := 0; i < 16; i++ {
		tb := tr2.Begin("q", "", 0, false)
		if _, kept := finish(tr2, tb); kept {
			keptN++
		}
	}
	if keptN != 4 {
		t.Fatalf("head sampling kept %d of 16, want 4", keptN)
	}
}

// TestTailRetentionUnderLoad is the retention property the issue pins:
// with concurrent load and head sampling effectively off, every slow
// and every errored trace must still be retained.
func TestTailRetentionUnderLoad(t *testing.T) {
	tr := NewTracer(4096)
	tr.SetSlowThreshold(10 * time.Millisecond)

	const workers = 8
	const perWorker = 50
	var mu sync.Mutex
	want := make(map[string]bool)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tb := tr.Begin("load", "", 0, false)
				switch i % 3 {
				case 0: // slow
					tb.Root().Start = time.Now().Add(-20 * time.Millisecond)
				case 1: // errored
					tb.MarkError()
				default: // fast and clean: must drop
				}
				id, kept := finish(tr, tb)
				if i%3 == 2 {
					if kept {
						t.Errorf("fast clean trace retained: %s", id)
					}
					continue
				}
				if !kept {
					t.Errorf("slow/errored trace dropped (i=%d)", i)
					continue
				}
				mu.Lock()
				want[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for id := range want {
		if tr.Store().Get(id) == nil {
			t.Fatalf("retained trace %s missing from store", id)
		}
	}
	// i%3 over 0..49 yields 17 slow + 17 errored retained per worker.
	if len(want) != workers*34 {
		t.Fatalf("retained %d traces, want %d", len(want), workers*34)
	}
}

func TestSpanStoreRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(0)
	var ids []string
	for i := 0; i < 10; i++ {
		tb := tr.Begin("q", "", 0, false)
		id, kept := finish(tr, tb)
		if !kept {
			t.Fatal("threshold 0 must retain everything")
		}
		ids = append(ids, id)
	}
	recent := tr.Store().Recent(0, 0, false)
	if len(recent) != 4 {
		t.Fatalf("recent = %d, want 4", len(recent))
	}
	// Newest first: the last stored trace leads.
	if recent[0].TraceID != ids[9] {
		t.Fatalf("recent[0] = %s, want %s", recent[0].TraceID, ids[9])
	}
	if tr.Store().Get(ids[0]) != nil {
		t.Fatal("oldest trace should have been overwritten")
	}
}

func TestSpanBufferOverflowCountsDropped(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(0)
	tb := tr.Begin("q", "", 0, false)
	for i := 0; i < maxTraceSpans+5; i++ {
		sp := tb.StartSpan("s")
		sp.End() // nil-safe once the buffer is full
	}
	id, _ := finish(tr, tb)
	st := tr.Store().Get(id)
	if st == nil || st.DroppedSpans != 6 {
		// root + (maxTraceSpans-1) children fit; 5 more + 1 = 6 dropped.
		t.Fatalf("dropped = %+v", st)
	}
}

func TestRecentFilters(t *testing.T) {
	tr := NewTracer(16)
	tr.SetSlowThreshold(0)

	slow := tr.Begin("slow", "", 0, false)
	slow.Root().Start = time.Now().Add(-100 * time.Millisecond)
	slowID, _ := finish(tr, slow)

	errd := tr.Begin("err", "", 0, false)
	errd.MarkError()
	errID, _ := finish(tr, errd)

	fast := tr.Begin("fast", "", 0, false)
	tr.Finish(fast)

	if got := tr.Store().Recent(0, 50*time.Millisecond, false); len(got) != 1 || got[0].TraceID != slowID {
		t.Fatalf("minDur filter = %+v", got)
	}
	if got := tr.Store().Recent(0, 0, true); len(got) != 1 || got[0].TraceID != errID {
		t.Fatalf("error filter = %+v", got)
	}
	if got := tr.Store().Recent(2, 0, false); len(got) != 2 {
		t.Fatalf("limit = %d, want 2", len(got))
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	v := FormatTraceparent("0123456789abcdef", 0xfeed, true)
	if v != "00-00000000000000000123456789abcdef-000000000000feed-01" {
		t.Fatalf("format = %q", v)
	}
	id, parent, sampled, ok := ParseTraceparent(v)
	if !ok || id != "0123456789abcdef" || parent != 0xfeed || !sampled {
		t.Fatalf("parse = %q %x %v %v", id, parent, sampled, ok)
	}

	// 32-hex foreign trace IDs survive unchanged.
	foreign := "4bf92f3577b34da6a3ce929d0e0e4736"
	v = FormatTraceparent(foreign, 1, false)
	id, _, sampled, ok = ParseTraceparent(v)
	if !ok || id != foreign || sampled {
		t.Fatalf("foreign parse = %q %v %v", id, sampled, ok)
	}

	for _, bad := range []string{
		"", "00", "01-00000000000000000123456789abcdef-000000000000feed-01",
		"00-zz000000000000000123456789abcdef-000000000000feed-01",
		"00-00000000000000000123456789abcdef-zz00000000000eed-01",
		"00-00000000000000000123456789abcdef-000000000000feed-zz",
	} {
		if _, _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestMergeStored(t *testing.T) {
	a := &StoredTrace{TraceID: "t", Root: "router", DurationNs: 10, Spans: []StoredSpan{
		{SpanID: "01", Name: "router"},
		{SpanID: "02", ParentID: "01", Name: "attempt"},
	}}
	b := &StoredTrace{TraceID: "t", Root: "GET /spg", Error: true, Spans: []StoredSpan{
		{SpanID: "03", ParentID: "02", Name: "GET /spg"},
		{SpanID: "02", ParentID: "01", Name: "attempt"}, // duplicate from re-fetch
	}}
	m := MergeStored(a, b)
	if len(m.Spans) != 3 || !m.Error || m.Root != "router" {
		t.Fatalf("merge = %+v", m)
	}
	if MergeStored(nil, b) != b || MergeStored(a, nil) != a {
		t.Fatal("nil merge identity broken")
	}
	other := &StoredTrace{TraceID: "u"}
	if got := MergeStored(a, other); got != a {
		t.Fatal("cross-trace merge must keep dst")
	}
}

func TestFinishDropPathZeroAllocs(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(time.Hour)
	// Warm the freelist.
	for i := 0; i < 4; i++ {
		tr.Finish(tr.Begin("q", "", 0, false))
	}
	allocs := testing.AllocsPerRun(200, func() {
		tb := tr.Begin("q", "", 0, false)
		sp := tb.StartSpan("stage")
		sp.SetInt("n", 1)
		sp.End()
		tr.Finish(tb)
	})
	if allocs != 0 {
		t.Fatalf("drop path allocs = %v, want 0", allocs)
	}
}

func TestExemplarRendering(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("qbs_test_latency_ns", `endpoint="/spg"`)
	c := reg.Counter("qbs_test_retries_total", "")
	for i := 0; i < 100; i++ {
		h.ObserveNs(int64(1000 + i))
	}
	h.SetExemplar(1050, "abc123")
	c.Inc()
	c.SetExemplar("def456")

	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `# {trace_id="abc123"} 1050`) {
		t.Fatalf("histogram exemplar missing:\n%s", text)
	}
	if !strings.Contains(text, `qbs_test_retries_total 1 # {trace_id="def456"} 1`) {
		t.Fatalf("counter exemplar missing:\n%s", text)
	}
	if err := ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("exposition with exemplars invalid: %v\n%s", err, text)
	}
}

func TestValidateExpositionRejectsBadExemplar(t *testing.T) {
	for _, bad := range []string{
		"qbs_x_total 1 # {trace_id=\"a\"}\n",      // missing value
		"qbs_x_total 1 # {trace_id} 1\n",          // malformed labels
		"qbs_x_total 1 # {trace_id=\"a\"} nope\n", // bad value
	} {
		if err := ValidateExposition([]byte(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	good := "qbs_x_total 1 # {trace_id=\"a\"} 1\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Fatalf("rejected %q: %v", good, err)
	}
}

func TestExemplarNearPrefersOctave(t *testing.T) {
	h := NewHistogram()
	h.SetExemplar(100, "low")
	h.SetExemplar(1_000_000, "high")
	if e := h.ExemplarNear(120); e == nil || e.TraceID != "low" {
		t.Fatalf("near low = %+v", e)
	}
	if e := h.ExemplarNear(900_000); e == nil || e.TraceID != "high" {
		t.Fatalf("near high = %+v", e)
	}
	if e := h.ExemplarNear(1 << 40); e == nil || e.TraceID != "high" {
		t.Fatalf("above all = %+v", e)
	}
	if NewHistogram().ExemplarNear(5) != nil {
		t.Fatal("empty histogram must have no exemplar")
	}
}

func TestTracerConcurrentFinish(t *testing.T) {
	tr := NewTracer(128)
	tr.SetSlowThreshold(0)
	tr.SetHeadEvery(2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb := tr.Begin("c", "", 0, i%5 == 0)
				sp := tb.StartSpan("s")
				sp.SetStr("k", "v")
				sp.End()
				tr.Finish(tb)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Store().Recent(0, 0, false)); got != 128 {
		t.Fatalf("store filled %d of 128 slots", got)
	}
}
