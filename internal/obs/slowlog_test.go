package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSlowLogThresholdAndOrder(t *testing.T) {
	l := NewSlowLog(8, 10*time.Millisecond)
	l.Record(SlowEntry{TraceID: "fast", DurationNs: int64(time.Millisecond)})
	if l.Len() != 0 {
		t.Fatal("entry below threshold recorded")
	}
	for i := 0; i < 3; i++ {
		l.Record(SlowEntry{TraceID: fmt.Sprint("slow-", i), DurationNs: int64(20 * time.Millisecond)})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	if got[0].TraceID != "slow-2" || got[2].TraceID != "slow-0" {
		t.Fatalf("not newest-first: %v", got)
	}
	l.SetThreshold(0)
	l.Record(SlowEntry{TraceID: "fast"})
	if l.Entries()[0].TraceID != "fast" {
		t.Fatal("threshold update not applied")
	}
}

func TestSlowLogBounded(t *testing.T) {
	const capEntries = 16
	l := NewSlowLog(capEntries, 0)
	for i := 0; i < 100; i++ {
		l.Record(SlowEntry{TraceID: fmt.Sprint(i), DurationNs: int64(i)})
	}
	got := l.Entries()
	if len(got) != capEntries {
		t.Fatalf("ring grew to %d, cap %d", len(got), capEntries)
	}
	if got[0].TraceID != "99" || got[capEntries-1].TraceID != fmt.Sprint(100-capEntries) {
		t.Fatalf("wrong window: first=%s last=%s", got[0].TraceID, got[capEntries-1].TraceID)
	}
}

// Run under -race this is the concurrent-writers safety check.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(32, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(SlowEntry{TraceID: fmt.Sprint(w, "-", i), DurationNs: int64(i)})
				if i%64 == 0 {
					_ = l.Entries()
					_ = l.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 32 {
		t.Fatalf("len = %d, want full ring", l.Len())
	}
}

func TestSlowLogFillFromTrace(t *testing.T) {
	l := NewSlowLog(4, 0)
	tr := &Trace{ID: "abc", HasQuery: true, U: 3, V: 9, Dist: 4,
		ArcsScanned: 100, LabelEntries: 12}
	tr.SetStage(StageParse, 10)
	tr.SetStage(StageSketch, 20)
	tr.SetStage(StageExpand, 30)
	tr.SetStage(StageExtract, 40)
	tr.SetStage(StageSerialize, 50)
	l.Fill(tr, "/spg", 200, 150, time.UnixMilli(1700000000000))
	e := l.Entries()[0]
	if e.TraceID != "abc" || e.Endpoint != "/spg" || e.Status != 200 || e.DurationNs != 150 {
		t.Fatalf("entry mismatch: %+v", e)
	}
	if e.Stages != (SlowStages{10, 20, 30, 40, 50}) {
		t.Fatalf("stages mismatch: %+v", e.Stages)
	}
	if !e.HasQuery || e.U != 3 || e.V != 9 || e.Dist != 4 || e.ArcsScanned != 100 || e.LabelEntries != 12 {
		t.Fatalf("engine stats mismatch: %+v", e)
	}
	// nil trace is a no-op
	l.Fill(nil, "/spg", 200, 150, time.Now())
	if l.Len() != 1 {
		t.Fatal("nil trace recorded")
	}
}
