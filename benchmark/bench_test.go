package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec mirrors the parts of BENCHMARK.json the tests hold the
// program to.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// differences are the metrics defined as one timing minus another; on
// a tiny graph, or with the race detector slowing the in-process side
// only, they can come out negative.
var differences = map[string]bool{
	"nethttp.residual_p50_us":    true,
	"server.unattributed_p50_us": true,
	"replica.router_hop_p50_us":  true,
	"store.replay_us_per_record": true,
	"trace.overhead_frac":        true,
}

// TestSmoke runs every workload end to end — real server processes,
// timed phases, oracle check, traced run — on a graph a twentieth of the
// dataset's base size with sub-second phases, and holds the output to
// BENCHMARK.json: every listed metric is emitted once per workload,
// under its listed unit, finite and, unless it is a difference, non-negative.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes; skipped in -short mode")
	}
	// The benchmark runs from the root of the checkout.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads the driver gates on, a subset
	// of the program's.
	for _, listed := range spec.Workloads {
		if w, err := workloadByName(listed.Name); err != nil || w.why != listed.Why {
			t.Errorf("BENCHMARK.json workload %q: the program has none of that name and why", listed.Name)
		}
	}
	// The test binary cannot start itself as the reference server; the
	// same handler in process gives every ratio a denominator.
	ref := httptest.NewServer(refHandler())
	defer ref.Close()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloads {
		w.scale = 0.05
		r, err := runWorkload(context.Background(), w, ref.URL, 1, 1, true, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed > 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.name, r.failed, r.attempted, r.firstErr)
		}
		for _, c := range []struct {
			kind string
			got  *metrics
			want []struct{ Name, Unit string }
		}{{"end_to_end", r.endToEnd, spec.EndToEnd}, {"per_layer", r.perLayer, spec.PerLayer}} {
			if len(c.got.names) != len(c.want) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json lists %d", w.name, len(c.got.names), c.kind, len(c.want))
			}
			for _, m := range c.want {
				v, ok := c.got.byName[m.Name]
				switch {
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", w.name, c.kind, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.name, m.Name, v.Value)
				case v.Value < 0 && !differences[m.Name]:
					t.Errorf("%s: %s = %v is negative", w.name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestQuartileSpread pins the repeatability statistic to Python's
// statistics.quantiles(values, n=4), which gives [2.75, 5.5, 8.25] for
// 1..10.
func TestQuartileSpread(t *testing.T) {
	values := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	median, spread := quartileSpread(values)
	if median != 5.5 || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("median %v spread %v, want 5.5 and 1", median, spread)
	}
}
