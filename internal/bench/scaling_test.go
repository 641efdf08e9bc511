package bench

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

func TestScalingSnapshot(t *testing.T) {
	var buf bytes.Buffer
	h := New(Config{
		Scale:        0.05,
		NumQueries:   60,
		NumLandmarks: 8,
		Datasets:     []string{"DO"},
		Out:          &buf,
	})
	rows, err := h.Scaling([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != "DO" || len(rows[0].Phases) != 3 {
		t.Fatalf("unexpected shape: %+v", rows)
	}
	for _, ph := range rows[0].Phases {
		if !ph.Identical {
			t.Fatalf("workers=%d: results not bit-identical to sequential", ph.Workers)
		}
		if ph.BuildNs <= 0 || ph.RepairNs <= 0 {
			t.Fatalf("workers=%d: empty timings: %+v", ph.Workers, ph)
		}
	}
	if rows[0].IndexSHA256 == "" {
		t.Fatal("missing index fingerprint")
	}
	if !bytes.Contains(buf.Bytes(), []byte("## Scaling")) {
		t.Fatal("markdown not rendered")
	}
}

// BenchmarkScaling is the CI smoke hook (`go test -bench=Scaling
// -benchtime=1x`): one tiny-scale pass over every pool width, which
// exercises the build and repair phases and fails the run if any width
// diverges from the sequential results.
func BenchmarkScaling(b *testing.B) {
	h := New(Config{
		Scale:        0.05,
		NumQueries:   40,
		NumLandmarks: 8,
		Datasets:     []string{"DO"},
	})
	for i := 0; i < b.N; i++ {
		rows, err := h.Scaling(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ph := range rows[0].Phases {
			if !ph.Identical {
				b.Fatalf("workers=%d diverged from sequential", ph.Workers)
			}
		}
	}
}

// TestParallelEfficiencyGate is the scaling regression gate: on a host
// with at least 4 CPUs, the labelling build at 4 workers on the YT
// analog at scale 1.0 must reach ≥50% parallel efficiency (≥2.0×
// speedup over sequential). On smaller hosts the gate skips — parallel
// speedup is physically impossible there and the bit-identical checks
// (which run everywhere) are the meaningful signal.
func TestParallelEfficiencyGate(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; need >=4 for a meaningful efficiency gate", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("scale-1.0 builds")
	}
	h := New(Config{
		Scale:        1.0,
		NumQueries:   200,
		NumLandmarks: 20,
		Datasets:     []string{"YT"},
		PPLBudget:    time.Minute,
	})
	rows, err := h.Scaling([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	ph := rows[0].Phases[1]
	if !ph.Identical {
		t.Fatalf("workers=4 diverged from sequential")
	}
	if ph.BuildSpeedup < 2.0 {
		t.Fatalf("build speedup at 4 workers = %.2fx, want >= 2.0x (>=50%% efficiency)", ph.BuildSpeedup)
	}
}
