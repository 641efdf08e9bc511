package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

var allocSink []byte

func newTestRecorder(capacity int) *FlightRecorder {
	f := NewFlightRecorder(capacity)
	f.CPUDuration = 20 * time.Millisecond
	f.MinAutoGap = 0
	return f
}

func TestFlightRecorderCaptureNow(t *testing.T) {
	f := newTestRecorder(16)
	infos := f.CaptureNow("manual")
	if len(infos) < 3 {
		t.Fatalf("captured %d profiles, want at least goroutine+heap+mutex", len(infos))
	}
	kinds := map[string]bool{}
	for _, pi := range infos {
		kinds[pi.Kind] = true
		if pi.SizeBytes == 0 {
			t.Fatalf("%s profile is empty", pi.Kind)
		}
		if pi.Trigger != "manual" {
			t.Fatalf("trigger = %q", pi.Trigger)
		}
	}
	for _, k := range []string{"goroutine", "heap", "mutex"} {
		if !kinds[k] {
			t.Fatalf("missing %s profile", k)
		}
	}

	// A second round sets the heap delta.
	allocSink = make([]byte, 1<<16)
	var heap *ProfileInfo
	for _, pi := range f.CaptureNow("manual") {
		if pi.Kind == "heap" {
			pi := pi
			heap = &pi
		}
	}
	if heap == nil || heap.HeapDelta <= 0 {
		t.Fatalf("second heap capture delta = %+v", heap)
	}
}

func TestFlightRecorderGetByID(t *testing.T) {
	f := newTestRecorder(16)
	infos := f.CaptureNow("manual")
	p := f.Get(infos[0].ID)
	if p == nil || p.ID != infos[0].ID || len(p.Bytes) == 0 {
		t.Fatalf("Get(%d) = %+v", infos[0].ID, p)
	}
	if f.Get(999999) != nil {
		t.Fatal("Get of unknown ID should be nil")
	}
}

func TestFlightRecorderRingBounded(t *testing.T) {
	f := newTestRecorder(4)
	f.CPUDuration = 0 // keep the test quick; CPU capture may add a 4th kind
	for i := 0; i < 3; i++ {
		f.CaptureNow("interval")
	}
	if got := len(f.Profiles()); got != 4 {
		t.Fatalf("ring holds %d, want capacity 4", got)
	}
	// Newest first, and the oldest captures were evicted.
	infos := f.Profiles()
	if infos[0].ID <= infos[len(infos)-1].ID {
		t.Fatalf("not newest-first: %+v", infos)
	}
}

func TestFlightRecorderTrigger(t *testing.T) {
	f := newTestRecorder(16)
	fired := false
	f.AddTrigger("fast_burn", func() bool { return !fired })
	f.pollTriggers()
	fired = true
	infos := f.Profiles()
	if len(infos) == 0 {
		t.Fatal("trigger did not capture")
	}
	if infos[0].Trigger != "fast_burn" {
		t.Fatalf("trigger label = %q", infos[0].Trigger)
	}

	// Debounce: with a long MinAutoGap a second poll is a no-op.
	f.MinAutoGap = time.Hour
	before := len(f.Profiles())
	f.AddTrigger("again", func() bool { return true })
	f.pollTriggers()
	if got := len(f.Profiles()); got != before {
		t.Fatalf("debounce failed: %d -> %d profiles", before, got)
	}
}

func TestFlightRecorderStartStop(t *testing.T) {
	f := newTestRecorder(16)
	f.Start(30 * time.Millisecond)
	defer f.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for len(f.Profiles()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no interval capture within deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if f.Profiles()[0].Trigger != "interval" {
		t.Fatalf("trigger = %q", f.Profiles()[0].Trigger)
	}
	f.Stop()
	f.Stop() // idempotent
}

func TestFlightRecorderServeHTTP(t *testing.T) {
	f := newTestRecorder(16)
	infos := f.CaptureNow("manual")
	mux := DebugMux(&DebugSources{Flight: f})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles", nil))
	var resp struct {
		Profiles []ProfileInfo `json:"profiles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Profiles) != len(infos) {
		t.Fatalf("list = %d, want %d", len(resp.Profiles), len(infos))
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/1", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("fetch by id: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if rec.Header().Get("X-Qbs-Profile-Kind") == "" {
		t.Fatal("kind header missing")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/424242", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown id: status %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/abc", nil))
	if rec.Code != 400 {
		t.Fatalf("bad id: status %d, want 400", rec.Code)
	}
}
