package core

import (
	"runtime"
	"testing"

	"qbs/internal/datasets"
)

// deltaAnalog returns the YT analog (undirected) or the WK analog
// (directed) at the given scale as a fixture.
func deltaAnalog(tb testing.TB, key string, scale float64) testGraph {
	tb.Helper()
	spec, err := datasets.ByKey(key)
	if err != nil {
		tb.Fatal(err)
	}
	if key == "WK" {
		return directed(spec.GenerateDirected(scale))
	}
	return undirected(spec.Generate(scale))
}

// TestBuildDeltaScratch holds Δ recovery to O(n) scratch: it reads the
// label columns where they lie, so the bytes it allocates — the label
// walk's marks and level buffers, its arc and sort buffers, and the Δ
// lists themselves — stay below half a byte per label entry. A
// row-major copy of the labels alone is n·R bytes per labelling.
func TestBuildDeltaScratch(t *testing.T) {
	for _, key := range []string{"YT", "WK"} {
		tg := deltaAnalog(t, key, 1)
		ix := tg.mustBuild(t, Options{})
		n, R := tg.numVertices(), ix.NumLandmarks()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix.buildDelta()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: n=%d R=%d: buildDelta allocated %d B (%.1f B per vertex)", key, n, R, alloc, float64(alloc)/float64(n))
		if limit := uint64(n * R / 2); alloc >= limit {
			t.Errorf("%s: buildDelta allocated %d B, want < n·R/2 = %d B", key, alloc, limit)
		}
	}
}

// BenchmarkBuildDelta times Δ recovery alone on the ×10 analogs, over
// labels built once.
func BenchmarkBuildDelta(b *testing.B) {
	for _, bc := range []struct{ name, key string }{{"YT", "YT"}, {"WK-directed", "WK"}} {
		b.Run(bc.name, func(b *testing.B) {
			ix := deltaAnalog(b, bc.key, 10).mustBuild(b, Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.buildDelta()
			}
		})
	}
}
