package obs

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// request begins a request trace under the given client trace ID and
// backdates its root by took, so Finish sees a request that slow.
func request(tr *Tracer, id string, took time.Duration) *TraceBuf {
	req := httptest.NewRequest("GET", "/spg", nil)
	req.Header.Set(TraceHeader, id)
	tb := tr.BeginRequest("/spg", req, nil)
	tb.Root().Start = time.Now().Add(-took)
	return tb
}

func slowIDs(tr *Tracer) []string {
	var ids []string
	for _, e := range tr.SlowLog(0).Entries {
		ids = append(ids, e.TraceID)
	}
	return ids
}

// TestSlowLogThresholdAndOrder: the log lists the requests at least the
// tracer's slow threshold long, newest first — requests only, however
// slow a background root was.
func TestSlowLogThresholdAndOrder(t *testing.T) {
	tr := NewTracer(8)
	tr.SetSlowThreshold(10 * time.Millisecond)
	tr.Finish(request(tr, "fast", 0))
	if got := slowIDs(tr); len(got) != 0 {
		t.Fatalf("request below the threshold listed: %v", got)
	}
	for i := 0; i < 3; i++ {
		tr.Finish(request(tr, fmt.Sprint("slow-", i), 20*time.Millisecond))
	}
	bg := tr.Begin("checkpoint", "background", 0, false)
	bg.Root().Start = time.Now().Add(-time.Second)
	if tr.Finish(bg) == nil {
		t.Fatal("slow background trace not retained")
	}
	if got := fmt.Sprint(slowIDs(tr)); got != "[slow-2 slow-1 slow-0]" {
		t.Fatalf("slow log %s, want the three slow requests newest first", got)
	}
	tr.SetSlowThreshold(0)
	tr.Finish(request(tr, "fast", 0))
	if got := tr.SlowLog(1); got.Entries[0].TraceID != "fast" || got.ThresholdNs != 0 || got.Capacity != SlowLogCapacity {
		t.Fatalf("after lowering the threshold: %+v", got)
	}
}

// TestSlowLogBounded: the log keeps the newest SlowLogCapacity slow
// requests, and keeps them whatever else the tracer retains afterwards:
// a slow entry is still listed once head-sampled fast traces have
// turned the span store over twice, when its trace link no longer
// resolves.
func TestSlowLogBounded(t *testing.T) {
	const storeCap = 16
	tr := NewTracer(storeCap)
	tr.SetSlowThreshold(10 * time.Millisecond)
	for i := 0; i < SlowLogCapacity+50; i++ {
		tr.Finish(request(tr, fmt.Sprint(i), 20*time.Millisecond))
	}
	got := slowIDs(tr)
	if len(got) != SlowLogCapacity || got[0] != fmt.Sprint(SlowLogCapacity+49) || got[SlowLogCapacity-1] != "50" {
		t.Fatalf("%d entries, first %s, last %s; want the newest %d", len(got), got[0], got[len(got)-1], SlowLogCapacity)
	}
	tr.SetHeadEvery(1)
	for i := 0; i < 2*storeCap; i++ {
		if tr.Finish(request(tr, fmt.Sprint("fast-", i), 0)) == nil {
			t.Fatal("head-sampled trace dropped")
		}
	}
	if after := slowIDs(tr); fmt.Sprint(after) != fmt.Sprint(got) {
		t.Fatalf("slow log changed under head-sampled fast traces:\n%v\n%v", got, after)
	}
	if tr.Store().Get(got[0]) != nil {
		t.Fatal("the span store still holds the slow trace: the flood did not turn it over")
	}
}

// Run under -race: requests finishing into both rings while the log is
// rendered.
func TestSlowLogConcurrent(t *testing.T) {
	tr := NewTracer(32)
	tr.SetSlowThreshold(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb := request(tr, fmt.Sprint(w, "-", i), 0)
				tb.AddSpan(StageSketch.SpanName(), time.Now(), time.Microsecond).SetInt("label_entries", int64(i))
				tr.Finish(tb)
				if i%32 == 0 {
					for _, e := range tr.SlowLog(0).Entries {
						if e.Endpoint != "/spg" || e.Stages.SketchNs != 1000 {
							t.Errorf("torn entry %+v", e)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(tr.SlowLog(0).Entries); n != SlowLogCapacity {
		t.Fatalf("%d entries, want a full log", n)
	}
}

// TestSlowLogFillFromTrace: every field of an entry is read off the
// retained trace — stages from the stage:* spans, query identity and
// status from the root's attrs, engine counters from the stage that ran
// them up, the endpoint from the root's name or, on a router, its path
// attr.
func TestSlowLogFillFromTrace(t *testing.T) {
	tr := NewTracer(4)
	tr.SetSlowThreshold(0)
	tb := request(tr, "abc", 150*time.Millisecond)
	start := tb.Root().Start
	root := tb.Root()
	root.SetInt("u", 3)
	root.SetInt("v", 9)
	root.SetInt("dist", 4)
	root.SetInt("status", 200)
	for s := Stage(0); s < NumStages; s++ {
		sp := tb.AddSpan(s.SpanName(), start, time.Duration(10*(s+1)))
		switch s {
		case StageSketch:
			sp.SetInt("label_entries", 12)
		case StageExpand:
			sp.SetInt("arcs_scanned", 100)
		}
	}
	tb.AddSpan("wal.append", start, time.Hour) // not a stage
	st := tr.Finish(tb)
	e := tr.SlowLog(0).Entries[0]
	if e.TraceID != "abc" || e.Trace != "/debug/traces/abc" || e.Endpoint != "/spg" || e.Status != 200 {
		t.Fatalf("entry mismatch: %+v", e)
	}
	if e.DurationNs != st.DurationNs || e.DurationNs < int64(150*time.Millisecond) || e.UnixMs != (st.StartUnixNs+st.DurationNs)/1e6 {
		t.Fatalf("timing mismatch: %+v against %+v", e, st)
	}
	if s := e.Stages; s.ParseNs != 10 || s.SketchNs != 20 || s.ExpandNs != 30 || s.ExtractNs != 40 || s.SerializeNs != 50 {
		t.Fatalf("stages mismatch: %+v", e.Stages)
	}
	if !e.HasQuery || e.U != 3 || e.V != 9 || e.Dist != 4 || e.ArcsScanned != 100 || e.LabelEntries != 12 {
		t.Fatalf("engine stats mismatch: %+v", e)
	}

	tb = request(tr, "routed", 0)
	tb.Root().SetStr("path", "/distance")
	tr.Finish(tb)
	if e := tr.SlowLog(0).Entries[0]; e.Endpoint != "/distance" || e.HasQuery || e.U != 0 || e.Stages.SketchNs != 0 {
		t.Fatalf("routed entry: %+v", e)
	}
}
