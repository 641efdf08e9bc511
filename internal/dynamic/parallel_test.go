package dynamic

import (
	"math/rand"
	"reflect"
	"testing"

	"qbs/internal/workload"
)

// compareStates requires two indexes to hold bit-identical published
// state: σ, every column's distance and label arrays, and Δ.
func compareStates(t *testing.T, seq, par *Index, when string) {
	t.Helper()
	a, b := seq.cur.Load(), par.cur.Load()
	if !reflect.DeepEqual(a.sigma, b.sigma) {
		t.Fatalf("%s: sigma differs between sequential and parallel", when)
	}
	for r := range a.dist {
		if !reflect.DeepEqual(a.dist[r], b.dist[r]) {
			t.Fatalf("%s: column %d distances differ", when, r)
		}
		if !reflect.DeepEqual(a.lab[r], b.lab[r]) {
			t.Fatalf("%s: column %d labels differ", when, r)
		}
	}
	if !reflect.DeepEqual(a.delta, b.delta) {
		t.Fatalf("%s: delta differs", when)
	}
}

// TestParallelDynamicBitIdentical builds the dynamic index with the
// traverse pool on and off over a graph large enough for the pool to
// engage, then pushes the same write stream through both with
// RepairBudget 1 — so every deletion falls through to the full column
// re-BFS, the parallel rebuild path — and requires the published state
// to stay bit-identical throughout.
func TestParallelDynamicBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-vertex builds")
	}
	rng := rand.New(rand.NewSource(11))
	g := randomMutableGraph(6000, 18000, rng)
	lms := g.TopDegreeVertices(12)
	build := func(par int) *Index {
		d, err := New(g, lms, Options{RepairBudget: 1, CompactFraction: -1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq, par := build(1), build(4)
	compareStates(t, seq, par, "after build")

	for i, op := range workload.MixedOps(g, 24, 1.0, 17) {
		apply := func(d *Index) error {
			var err error
			switch op.Kind {
			case workload.OpInsert:
				_, err = d.AddEdge(op.U, op.V)
			case workload.OpDelete:
				_, err = d.RemoveEdge(op.U, op.V)
			}
			return err
		}
		if err := apply(seq); err != nil {
			t.Fatalf("op %d on sequential: %v", i, err)
		}
		if err := apply(par); err != nil {
			t.Fatalf("op %d on parallel: %v", i, err)
		}
	}
	compareStates(t, seq, par, "after churn")

	if st := par.Stats(); st.ColumnsRebuilt == 0 {
		t.Fatalf("budget-1 churn triggered no full column rebuilds: %+v", st)
	}
}
