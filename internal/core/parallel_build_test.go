package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qbs/internal/graph"
)

// sameState reports the first field of State — landmarks, σ, both
// labellings, Δ — in which two indexes differ.
func sameState(a, b State) error {
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"landmarks", a.Landmarks, b.Landmarks},
		{"sigma", a.Sigma, b.Sigma},
		{"LabelTo", a.LabelTo, b.LabelTo},
		{"LabelFrom", a.LabelFrom, b.LabelFrom},
		{"Delta", a.Delta, b.Delta},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Errorf("%s differs", f.name)
		}
	}
	return nil
}

// TestParallelBuildBitIdentical builds over graphs large enough that
// the intra-sweep traverse pool actually engages (n and BFS frontier
// sizes past the pool thresholds) and requires the index — both
// labellings, σ, the APSP, the meta-edge list, Δ — to be identical at
// every worker count, including a landmark set spanning multiple
// 64-wide batches where the budget splits into outer (per-batch) ×
// inner (in-sweep) workers. The exported State must be equal field by
// field too.
func TestParallelBuildBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-vertex builds")
	}
	for _, tc := range []struct {
		tg testGraph
		R  int
	}{
		{undirected(randomTestGraph(t, 12000, 48000, 1)), 20}, // one batch: all budget goes intra-sweep
		{undirected(randomTestGraph(t, 9000, 27000, 2)), 70},  // two batches: outer × inner split
		{directed(randomDigraph(10000, 50000, 1)), 16},        // one batch per direction
		{directed(randomDigraph(7000, 28000, 2)), 70},         // two batches per direction
	} {
		var base *Index
		for _, par := range []int{1, 2, 4, 8} {
			ix := tc.tg.mustBuild(t, Options{NumLandmarks: tc.R, Parallelism: par})
			if par == 1 {
				base = ix
				continue
			}
			if err := sameIndex(base, ix); err != nil {
				t.Fatalf("n=%d directed=%v R=%d: parallelism=%d vs sequential: %v",
					tc.tg.numVertices(), tc.tg.dir != nil, tc.R, par, err)
			}
			if err := sameState(base.State(), ix.State()); err != nil {
				t.Fatalf("n=%d directed=%v R=%d: parallelism=%d vs sequential: State %v",
					tc.tg.numVertices(), tc.tg.dir != nil, tc.R, par, err)
			}
		}
	}
}

// TestParallelBuildQueriesMatch cross-checks the serving path: a
// searcher over a parallel-built index must answer every query exactly
// like one over the sequentially built index.
func TestParallelBuildQueriesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-vertex builds")
	}
	g := randomTestGraph(t, 8000, 32000, 7)
	seqIx, err := Build(g, Options{NumLandmarks: 16, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parIx, err := Build(g, Options{NumLandmarks: 16, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSearcher(seqIx)
	par := NewSearcher(parIx)
	rng := rand.New(rand.NewSource(99))
	a, b := graph.NewSPG(0, 0), graph.NewSPG(0, 0)
	for i := 0; i < 300; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		seq.QueryInto(a, u, v)
		par.QueryInto(b, u, v)
		if !a.Equal(b) {
			t.Fatalf("query (%d,%d): parallel SPG differs from sequential", u, v)
		}
	}
}
