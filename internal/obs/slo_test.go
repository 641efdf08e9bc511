package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSLORecordAndWindows(t *testing.T) {
	s := NewSLO("read", "spg", 0.99, 50*time.Millisecond)
	for i := 0; i < 90; i++ {
		s.Record(int64(time.Millisecond), 200) // good
	}
	for i := 0; i < 5; i++ {
		s.Record(int64(time.Millisecond), 503) // bad: availability
	}
	for i := 0; i < 5; i++ {
		s.Record(int64(100*time.Millisecond), 200) // bad: latency
	}
	good, total := s.Window(5 * time.Minute)
	if total != 100 || good != 90 {
		t.Fatalf("window = %d/%d, want 90/100", good, total)
	}
	// bad fraction 0.10, budget 0.01 -> burn rate 10.
	if br := s.BurnRate(5 * time.Minute); br < 9.9 || br > 10.1 {
		t.Fatalf("burn rate = %v, want ~10", br)
	}
	// The longer windows include the same samples.
	if _, total := s.Window(6 * time.Hour); total != 100 {
		t.Fatalf("6h window total = %d", total)
	}
}

func TestSLOFastBurn(t *testing.T) {
	s := NewSLO("read", "spg", 0.999, 0)
	// Below the minimum sample count nothing fires, no matter how bad.
	for i := 0; i < fastBurnMinTotal-1; i++ {
		s.Record(0, 500)
	}
	if s.FastBurn() {
		t.Fatal("fast burn fired below the minimum sample count")
	}
	s.Record(0, 500)
	// All-bad traffic burns at 1/(1-0.999) = 1000x >> 14.4.
	if !s.FastBurn() {
		t.Fatal("fast burn did not fire on all-bad traffic")
	}

	healthy := NewSLO("read", "spg", 0.999, 0)
	for i := 0; i < 1000; i++ {
		healthy.Record(0, 200)
	}
	if healthy.FastBurn() {
		t.Fatal("fast burn fired on healthy traffic")
	}
}

func TestSLOBurnRateEmptyWindow(t *testing.T) {
	s := NewSLO("read", "spg", 0.999, 0)
	if br := s.BurnRate(5 * time.Minute); br != 0 {
		t.Fatalf("empty window burn rate = %v, want 0", br)
	}
	if s.FastBurn() {
		t.Fatal("fast burn on empty window")
	}
}

func TestSLOSetEndpointIndexAndGauges(t *testing.T) {
	reg := NewRegistry()
	ss := NewSLOSet(reg)
	read := ss.Add(NewSLO("read-availability", "spg", 0.99, 0))
	ss.Add(NewSLO("write-availability", "update", 0.99, 0))

	if ss.ForEndpoint("spg") != read {
		t.Fatal("ForEndpoint miss")
	}
	if ss.ForEndpoint("nope") != nil {
		t.Fatal("ForEndpoint ghost")
	}

	for i := 0; i < 50; i++ {
		read.Record(0, 200)
	}
	for i := 0; i < 50; i++ {
		read.Record(0, 500)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `qbs_slo_burn_rate{slo="read-availability",window="5m"} 49.99`) &&
		!strings.Contains(out, `qbs_slo_burn_rate{slo="read-availability",window="5m"} 50`) {
		t.Fatalf("burn rate gauge missing or wrong:\n%s", out)
	}
	if br := read.BurnRate(5 * time.Minute); br < 49 || br > 51 {
		t.Fatalf("burn rate = %v, want ~50", br)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

func TestSLOSetServeHTTP(t *testing.T) {
	ss := NewSLOSet(nil)
	s := ss.Add(NewSLO("read", "spg", 0.999, 25*time.Millisecond))
	for i := 0; i < 20; i++ {
		s.Record(0, 500)
	}
	rec := httptest.NewRecorder()
	DebugMux(&DebugSources{SLOs: ss}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	var resp struct {
		SLOs []SLOView `json:"slos"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(resp.SLOs) != 1 {
		t.Fatalf("slos = %d", len(resp.SLOs))
	}
	v := resp.SLOs[0]
	if !v.FastBurn {
		t.Fatal("fast_burn not reported")
	}
	w5 := v.Windows["5m"]
	if w5.Total != 20 || w5.Good != 0 {
		t.Fatalf("5m window = %+v", w5)
	}
	if v.LatencyMs != 25 {
		t.Fatalf("latency_ms = %v", v.LatencyMs)
	}
}

func TestSLOSetFastBurnAggregates(t *testing.T) {
	ss := NewSLOSet(nil)
	ss.Add(NewSLO("a", "x", 0.999, 0))
	b := ss.Add(NewSLO("b", "y", 0.999, 0))
	if ss.FastBurn() {
		t.Fatal("fast burn with no traffic")
	}
	for i := 0; i < 20; i++ {
		b.Record(0, 500)
	}
	if !ss.FastBurn() {
		t.Fatal("set-level fast burn did not aggregate")
	}
}

func TestSLORecordZeroAllocs(t *testing.T) {
	s := NewSLO("read", "spg", 0.999, int64ms(50))
	allocs := testing.AllocsPerRun(1000, func() {
		s.Record(1e6, 200)
		s.Record(1e9, 503)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func int64ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
