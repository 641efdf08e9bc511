package dynamic

import (
	"runtime"
	"testing"

	"qbs/internal/core"
	"qbs/internal/graph"
)

// totalAlloc returns the bytes f allocates.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// threePaths returns 2^17 vertices, nearly all isolated, holding three
// disjoint paths of length 4 between landmarks 0 and 1 (through 2-3-4,
// 5-6-7 and 8-9-10), so Δ(0, 1) has twelve edges.
func threePaths(t *testing.T) *Index {
	t.Helper()
	b := graph.NewBuilder(1 << 17)
	for _, p := range [][3]graph.V{{2, 3, 4}, {5, 6, 7}, {8, 9, 10}} {
		b.AddEdge(0, p[0])
		b.AddEdge(p[0], p[1])
		b.AddEdge(p[1], p[2])
		b.AddEdge(p[2], 1)
	}
	d, err := New(b.MustBuild(), []graph.V{0, 1}, Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeltaRepairKeepsItsWalk inserts the chord {2, 6} — one level apart
// on two of the paths, so Δ(0, 1) is walked again — after the writer has
// walked Δ once. Beyond the copies every insert makes (the overlay's
// n/8-byte bitmap, and a distance and a label column, 5n bytes, per
// column it repairs), the update must allocate less than n/8 bytes: the
// label walk's marks (n/8) and their log (n/16) are the writer's, kept
// from the first walk.
func TestDeltaRepairKeepsItsWalk(t *testing.T) {
	d := threePaths(t)
	n := uint64(d.NumVertices())
	for _, insert := range []bool{true, false} { // warm-up: walks Δ(0, 1) twice
		if _, err := d.ApplyEdge(2, 6, insert); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats()
	got := totalAlloc(func() {
		if _, err := d.ApplyEdge(2, 6, true); err != nil {
			t.Fatal(err)
		}
	})
	after := d.Stats()
	if after.DeltaRecomputes == before.DeltaRecomputes {
		t.Fatal("the chord walked no Δ list")
	}
	cols := after.ColumnsRepaired + after.ColumnsRebuilt - before.ColumnsRepaired - before.ColumnsRebuilt
	rest := int64(got) - int64(n/8+cols*5*n)
	if rest >= int64(n/8) {
		t.Fatalf("the chord allocated %d bytes, %d beyond its overlay and %d column copies; want fewer than n/8 = %d", got, rest, cols, n/8)
	}
	t.Logf("the chord allocated %d bytes beyond its overlay and %d column copies", rest, cols)
}

// TestRepairerHoldsNoEngineWords: a writer's repair scratch holds its own
// per-vertex arrays (21 bytes per vertex) and none of the sweep engine's
// until a column re-BFS runs.
func TestRepairerHoldsNoEngineWords(t *testing.T) {
	const n = 1 << 16
	sh, err := core.NewShell(n, []graph.V{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var rp *repairer
	got := totalAlloc(func() { rp = newRepairer(sh, 64, 4) })
	if bound := uint64(21*n + 16<<10); got > bound {
		t.Fatalf("newRepairer allocated %d bytes (%.1f per vertex), want at most %d", got, float64(got)/n, bound)
	}
	runtime.KeepAlive(rp)
}
