package obs

import (
	"runtime"
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
	grand := tb.start("wal.append", child.ID)
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

	// An ID traceparent cannot carry so that the next hop reads back the
	// same string is not formatted at all: the hop gets TraceHeader alone.
	for _, id := range []string{
		"", "incident0123456789abcdef", "req-42", "abc", "0123456789ABCDEF",
		"0123456789abcdef0123", strings.Repeat("a", 36), "0000000000000000",
		"00000000000000000123456789abcdef", strings.Repeat("0", 32),
	} {
		if v := FormatTraceparent(id, 1, true); v != "" {
			t.Fatalf("formatted %q as %q", id, v)
		}
	}
	for _, id := range []string{"0123456789abcdef", foreign, "000000000000000f", "0000000000000001" + "0123456789abcdef"} {
		got, parent, sampled, ok := ParseTraceparent(FormatTraceparent(id, 7, true))
		if !ok || got != id || parent != 7 || !sampled {
			t.Fatalf("%q round-trips to %q %x %v %v", id, got, parent, sampled, ok)
		}
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

// TestReusedTraceIDStaysBounded: a client that sends the same sampled
// trace ID with every request (traceparent flag 01 forces retention)
// folds every request's spans into one span-store slot. The slot stops
// at maxStoredSpans, the rest are counted in DroppedSpans, and each
// merge costs the same however many came before: the last thousand
// requests allocate no more than the second thousand did.
func TestReusedTraceIDStaysBounded(t *testing.T) {
	const requests, spansPerRequest = 4000, 7
	tr := NewTracer(8)
	tr.SetSlowThreshold(time.Hour)
	request := func() {
		tb := tr.Begin("/spg", "0123456789abcdef", 0, true)
		for i := 1; i < spansPerRequest; i++ {
			tb.StartSpan("stage").End()
		}
		tr.Finish(tb)
	}
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	var second, last uint64
	for i := 0; i < requests; i++ {
		switch i {
		case 1000:
			second = allocated()
		case 2000:
			second = allocated() - second
		case 3000:
			last = allocated()
		}
		request()
	}
	last = allocated() - last
	st := tr.Store().Get("0123456789abcdef")
	if st == nil {
		t.Fatal("the reused trace was not retained")
	}
	if len(st.Spans) != maxStoredSpans {
		t.Fatalf("stored trace holds %d spans, want the cap %d", len(st.Spans), maxStoredSpans)
	}
	if want := requests*spansPerRequest - maxStoredSpans; st.DroppedSpans != want {
		t.Fatalf("DroppedSpans %d, want %d", st.DroppedSpans, want)
	}
	if last > second+second/2 {
		t.Fatalf("requests 3000-4000 allocated %d B, 1000-2000 %d B: merging grows with the slot", last, second)
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

// TestExemplarRendering: the text format (0.0.4) has no exemplar
// syntax, so every sample the encoder writes — histogram quantiles and
// counters included — is the series and its value and nothing after.
func TestExemplarRendering(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("qbs_test_latency_ns", `endpoint="/spg"`)
	c := reg.Counter("qbs_test_retries_total", "")
	for i := 0; i < 100; i++ {
		h.ObserveNs(int64(1000 + i))
		c.Inc()
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") && len(strings.Fields(line)) != 2 {
			t.Fatalf("sample %q is not a series and a value", line)
		}
	}
	if !strings.Contains(text, "\nqbs_test_retries_total 100\n") {
		t.Fatalf("counter sample missing:\n%s", text)
	}
	if err := ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
}

// TestValidateExpositionRejectsBadExemplar: the text format (0.0.4) has
// no exemplar syntax, so no exemplar suffix is a valid sample — not even
// a well-formed OpenMetrics one.
func TestValidateExpositionRejectsBadExemplar(t *testing.T) {
	for _, bad := range []string{
		"qbs_x_total 1 # {trace_id=\"a\"}\n",      // missing value
		"qbs_x_total 1 # {trace_id} 1\n",          // malformed labels
		"qbs_x_total 1 # {trace_id=\"a\"} nope\n", // bad value
		"qbs_x_total 1 # {trace_id=\"a\"} 1\n",
		"qbs_x{quantile=\"0.5\"} 1 # {trace_id=\"a\"} 1\n",
	} {
		if err := ValidateExposition([]byte(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
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
