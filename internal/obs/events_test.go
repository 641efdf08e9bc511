package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestJournalEmitAndRecent(t *testing.T) {
	reg := NewRegistry()
	j := NewJournal(16, reg)
	d := j.Def("store", "fsync_error", LevelError)
	d.EmitTrace("abc123", Str("path", "seg-1.wal"), Int("records", 7))

	evs := j.Recent(10, LevelDebug, "")
	if len(evs) != 1 {
		t.Fatalf("Recent = %d events, want 1", len(evs))
	}
	v := evs[0].View()
	if v.Component != "store" || v.Event != "fsync_error" || v.Level != "error" {
		t.Fatalf("bad event view: %+v", v)
	}
	if v.TraceID != "abc123" {
		t.Fatalf("trace id = %q", v.TraceID)
	}
	if v.Attrs["path"] != "seg-1.wal" || v.Attrs["records"] != int64(7) {
		t.Fatalf("attrs = %v", v.Attrs)
	}
	if got := reg.Counter("qbs_events_total", `component="store",level="error"`).Load(); got != 1 {
		t.Fatalf("qbs_events_total = %d, want 1", got)
	}
}

func TestJournalRecentFilters(t *testing.T) {
	j := NewJournal(32, nil)
	warn := j.Def("replica", "tail_slow", LevelWarn)
	errd := j.Def("router", "backend_down", LevelError)
	info := j.Def("replica", "bootstrap", LevelInfo)
	warn.Emit()
	errd.Emit()
	info.Emit()

	if got := len(j.Recent(10, LevelWarn, "")); got != 2 {
		t.Fatalf("min_level=warn: %d events, want 2", got)
	}
	if got := len(j.Recent(10, LevelDebug, "replica")); got != 2 {
		t.Fatalf("component=replica: %d events, want 2", got)
	}
	if got := len(j.Recent(1, LevelDebug, "")); got != 1 {
		t.Fatalf("n=1: %d events", got)
	}
	// Newest first.
	if evs := j.Recent(10, LevelDebug, ""); evs[0].Event != "bootstrap" {
		t.Fatalf("newest first violated: %s", evs[0].Event)
	}
}

func TestJournalRingWraps(t *testing.T) {
	j := NewJournal(4, nil)
	d := j.DefRate("c", "e", LevelInfo, 0, 0) // unlimited
	for i := int64(0); i < 10; i++ {
		d.Emit(Int("i", i))
	}
	evs := j.Recent(0, LevelDebug, "")
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	if evs[0].View().Attrs["i"] != int64(9) {
		t.Fatalf("newest = %v, want 9", evs[0].View().Attrs["i"])
	}
}

func TestJournalRateLimitSuppresses(t *testing.T) {
	j := NewJournal(64, nil)
	d := j.DefRate("store", "wal_error", LevelError, 1, 2) // 1/s, burst 2
	for i := 0; i < 10; i++ {
		d.Emit()
	}
	evs := j.Recent(0, LevelDebug, "")
	if len(evs) != 2 {
		t.Fatalf("admitted %d events, want burst of 2", len(evs))
	}
	if d.suppressed.Load() != 8 {
		t.Fatalf("suppressed = %d, want 8", d.suppressed.Load())
	}
	// The next admitted emit (after the bucket refills) surfaces the
	// suppressed count.
	d.tat.Store(0) // refill without sleeping
	d.Emit()
	if evs := j.Recent(1, LevelDebug, ""); evs[0].Suppressed != 8 {
		t.Fatalf("Suppressed on next admit = %d, want 8", evs[0].Suppressed)
	}
}

func TestJournalDefIdempotent(t *testing.T) {
	j := NewJournal(16, nil)
	a := j.Def("c", "e", LevelInfo)
	b := j.Def("c", "e", LevelWarn) // level of first declaration wins
	if a != b {
		t.Fatal("Def not idempotent")
	}
	if b.Level() != LevelInfo {
		t.Fatalf("level = %v, want info", b.Level())
	}
}

func TestJournalServeHTTP(t *testing.T) {
	j := NewJournal(16, nil)
	j.Def("store", "snapshot_retired", LevelWarn).Emit(Str("file", "snap-42"))
	j.Def("router", "evicted", LevelError).EmitTrace("deadbeef")
	j.Def("replica", "bootstrap", LevelDebug).Emit() // admitted: the journal has no level floor
	mux := DebugMux(&DebugSources{Journal: j})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/logs?min_level=error", nil))
	var resp map[string][]EventView
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(resp) != 1 {
		t.Fatalf("body keys = %d, want events alone: %s", len(resp), rec.Body.String())
	}
	if evs := resp["events"]; len(evs) != 1 || evs[0].Event != "evicted" || evs[0].TraceID != "deadbeef" {
		t.Fatalf("filtered events = %+v", evs)
	}

	// Filtering happens when the log is read: a debug-level event is in
	// the ring, and min_level=debug (the default) returns it.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/logs", nil))
	resp = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if evs := resp["events"]; len(evs) != 3 || evs[0].Event != "bootstrap" || evs[0].Level != "debug" {
		t.Fatalf("unfiltered events = %+v", evs)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/logs?component=store&n=5", nil))
	resp = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if evs := resp["events"]; len(evs) != 1 || evs[0].Component != "store" {
		t.Fatalf("component filter: %+v", evs)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/logs?min_level=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("bad level: status %d, want 400", rec.Code)
	}
}

// The rate-limited drop path must not allocate either: a wedged retry
// loop emitting thousands of suppressed events leaves no garbage.
func TestEventSuppressedPathZeroAllocs(t *testing.T) {
	j := NewJournal(16, nil)
	d := j.DefRate("store", "retry", LevelError, 1, 1)
	d.Emit() // drain the burst
	allocs := testing.AllocsPerRun(1000, func() {
		d.Emit(Str("err", "disk full"))
	})
	if allocs != 0 {
		t.Fatalf("suppressed Emit allocates %.1f/op, want 0", allocs)
	}
}

func TestJournalConcurrentEmit(t *testing.T) {
	j := NewJournal(64, NewRegistry())
	d := j.DefRate("c", "e", LevelInfo, 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d.Emit(Int("i", int64(i)))
			}
		}()
	}
	wg.Wait()
	if got := len(j.Recent(0, LevelDebug, "")); got != 64 {
		t.Fatalf("ring holds %d, want full 64", got)
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, ok := ParseLevel(l.String())
		if !ok || got != l {
			t.Fatalf("round trip %v -> %q -> %v ok=%v", l, l.String(), got, ok)
		}
	}
	if _, ok := ParseLevel("verbose"); ok {
		t.Fatal("ParseLevel accepted junk")
	}
	if !strings.Contains(Level(99).String(), "unknown") {
		t.Fatal("out-of-range level should stringify as unknown")
	}
}
