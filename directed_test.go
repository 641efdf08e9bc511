package qbs_test

import (
	"math/rand"
	"sync"
	"testing"

	"qbs"
	"qbs/internal/analysis"
	"qbs/internal/graph"
)

func TestDirectedPublicAPI(t *testing.T) {
	b := qbs.NewDiBuilder(5)
	b.AddArc(0, 1)
	b.AddArc(1, 4)
	b.AddArc(0, 2)
	b.AddArc(2, 4)
	b.AddArc(4, 3) // continues past the target
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := qbs.BuildDiIndex(g, qbs.DiOptions{NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	spg := ix.Query(0, 4)
	if spg.Dist != 2 || spg.NumEdges() != 4 {
		t.Fatalf("directed diamond: %v", spg)
	}
	// Reverse direction is unreachable.
	if rev := ix.Query(4, 0); rev.Dist != qbs.InfDist {
		t.Fatalf("reverse must be unreachable: %v", rev)
	}
}

func TestDirectedIndexMatchesOracleAndBaseline(t *testing.T) {
	g := graph.DirectedScaleFree(400, 3, 41)
	ix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: 16})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 120; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		want := qbs.OracleDiSPG(g, u, v)
		if got := ix.Query(u, v); !got.Equal(want) {
			t.Fatalf("DiIndex(%d,%d) != oracle", u, v)
		}
		if got := qbs.DiBiBFS(g, u, v); !got.Equal(want) {
			t.Fatalf("DiBiBFS(%d,%d) != oracle", u, v)
		}
	}
}

func TestDirectedConcurrentQueries(t *testing.T) {
	g := graph.DirectedErdosRenyi(300, 1500, 8)
	ix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: 10})
	type pair struct{ u, v qbs.V }
	rng := rand.New(rand.NewSource(3))
	pairs := make([]pair, 64)
	want := make([]*qbs.DiSPG, len(pairs))
	for i := range pairs {
		pairs[i] = pair{qbs.V(rng.Intn(300)), qbs.V(rng.Intn(300))}
		want[i] = qbs.OracleDiSPG(g, pairs[i].u, pairs[i].v)
	}
	var wg sync.WaitGroup
	errs := make(chan int, len(pairs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += 8 {
				if !ix.Query(pairs[i].u, pairs[i].v).Equal(want[i]) {
					errs <- i
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Fatalf("concurrent directed query %d mismatched", i)
	}
}

func TestAsDirectedRoundTrip(t *testing.T) {
	ug := graph.Cycle(9)
	dg := qbs.AsDirected(ug)
	if dg.NumArcs() != 2*ug.NumEdges() {
		t.Fatalf("arcs = %d, want %d", dg.NumArcs(), 2*ug.NumEdges())
	}
	ix := qbs.MustBuildDiIndex(dg, qbs.DiOptions{NumLandmarks: 3})
	spg := ix.Query(0, 4)
	if spg.Dist != 4 {
		t.Fatalf("cycle distance = %d", spg.Dist)
	}
}

// TestDiDistanceAndQueryIntoMatchOracle covers the grown serving
// surface: Distance and the reusable-result QueryInto must agree with
// the brute-force oracle.
func TestDiDistanceAndQueryIntoMatchOracle(t *testing.T) {
	g := graph.DirectedScaleFree(350, 3, 59)
	ix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: 14})
	spg := new(qbs.DiSPG)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 120; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		want := qbs.OracleDiSPG(g, u, v)
		if got := ix.QueryInto(spg, u, v); !got.Equal(want) {
			t.Fatalf("QueryInto(%d,%d) != oracle", u, v)
		}
		if d := ix.Distance(u, v); d != want.Dist {
			t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, d, want.Dist)
		}
	}
}

// TestDiQueryBatchMatchesOracle runs batches against the oracle —
// including an index with more landmarks than one 64-way engine sweep
// carries, so the multi-batch labelling path serves real queries.
func TestDiQueryBatchMatchesOracle(t *testing.T) {
	for _, R := range []int{12, 80} {
		g := graph.DirectedScaleFree(300, 3, int64(R))
		ix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: R})
		rng := rand.New(rand.NewSource(int64(R) * 3))
		pairs := make([]qbs.Pair, 96)
		for i := range pairs {
			pairs[i] = qbs.Pair{U: qbs.V(rng.Intn(g.NumVertices())), V: qbs.V(rng.Intn(g.NumVertices()))}
		}
		out := ix.QueryBatch(pairs, 4)
		if len(out) != len(pairs) {
			t.Fatalf("R=%d: %d results for %d pairs", R, len(out), len(pairs))
		}
		for i, spg := range out {
			if spg == nil {
				t.Fatalf("R=%d: result %d missing", R, i)
			}
			if want := qbs.OracleDiSPG(g, pairs[i].U, pairs[i].V); !spg.Equal(want) {
				t.Fatalf("R=%d: batch result %d != oracle", R, i)
			}
		}
	}
}

// TestDiQueryBatchRecoversFromPanic mirrors the undirected contract: a
// poisoned pair loses only its own slot.
func TestDiQueryBatchRecoversFromPanic(t *testing.T) {
	g := graph.DirectedScaleFree(200, 3, 67)
	ix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: 8})
	rng := rand.New(rand.NewSource(5))
	batch := make([]qbs.Pair, 48)
	for i := range batch {
		batch[i] = qbs.Pair{U: qbs.V(rng.Intn(200)), V: qbs.V(rng.Intn(200))}
	}
	poisonA, poisonB := 3, 30
	batch[poisonA] = qbs.Pair{U: -1, V: 0}
	batch[poisonB] = qbs.Pair{U: 0, V: qbs.V(g.NumVertices() + 9)}
	out := ix.QueryBatch(batch, 4)
	for i, spg := range out {
		if i == poisonA || i == poisonB {
			if spg != nil {
				t.Fatalf("poisoned pair %d returned a result", i)
			}
			continue
		}
		if spg == nil {
			t.Fatalf("healthy pair %d lost its result", i)
		}
		if want := ix.Query(batch[i].U, batch[i].V); !spg.Equal(want) {
			t.Fatalf("pair %d: batch result differs from direct query", i)
		}
	}
}

// TestDiStorePublicRoundTrip covers CreateDiStore/OpenDiStore: the
// reopened index answers every query identically and DiStoreExists
// tracks the directory state.
func TestDiStorePublicRoundTrip(t *testing.T) {
	g := graph.DirectedScaleFree(300, 3, 71)
	dir := t.TempDir()
	if qbs.DiStoreExists(dir) {
		t.Fatal("empty dir reports a store")
	}
	ix, err := qbs.CreateDiStore(dir, g, qbs.DiStoreOptions{Index: qbs.DiOptions{NumLandmarks: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !qbs.DiStoreExists(dir) {
		t.Fatal("DiStoreExists false after create")
	}
	re, err := qbs.OpenDiStore(dir, qbs.DiStoreOptions{MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 80; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		want := qbs.OracleDiSPG(g, u, v)
		if !ix.Query(u, v).Equal(want) || !re.Query(u, v).Equal(want) {
			t.Fatalf("store round trip diverges on (%d,%d)", u, v)
		}
	}
	if _, err := qbs.CreateDiStore(dir, g, qbs.DiStoreOptions{}); err == nil {
		t.Fatal("second CreateDiStore succeeded")
	}
}

// TestOrientationIsTheIndexs is the property behind the one answer
// type, over random digraphs G and their symmetrisations S (the
// undirected graph under G's arcs): whatever a result held before, an
// index of either kind stamps it with its own orientation — directed
// from a DiIndex, undirected from an Index or a DynamicIndex; Edges()
// of a directed answer is what the benchmark's Arcs() shim returns,
// element for element, and matches the directed oracle; Equal is
// sensitive to the order of the pair iff the answer is directed; and
// layering an answer of either orientation counts the same paths —
// over S as a digraph, the directed and the undirected index's.
func TestOrientationIsTheIndexs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 40 + int(seed)*15
		g := graph.DirectedErdosRenyi(n, 3*n, seed)
		var under []qbs.Edge
		for _, a := range g.Arcs() {
			under = append(under, qbs.Edge{U: a.From, W: a.To})
		}
		s, err := qbs.FromEdges(n, under)
		if err != nil {
			t.Fatal(err)
		}
		dix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: 5})
		six := qbs.MustBuildDiIndex(qbs.AsDirected(s), qbs.DiOptions{NumLandmarks: 5})
		ix := qbs.MustBuildIndex(s, qbs.Options{NumLandmarks: 5})
		dyn, err := qbs.BuildDynamicIndex(s, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 5}})
		if err != nil {
			t.Fatal(err)
		}

		var spg qbs.SPG // one zero value through every kind of index, in turn
		var dagD, dagU analysis.DAG
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			u, v := qbs.V(rng.Intn(n)), qbs.V(rng.Intn(n))

			if dix.QueryInto(&spg, u, v); !spg.Directed() || !spg.Equal(qbs.OracleDiSPG(g, u, v)) {
				t.Fatalf("seed %d: DiIndex filled (%d→%d) with %v", seed, u, v, &spg)
			}
			arcs := spg.Arcs()
			if len(arcs) != len(spg.Edges()) {
				t.Fatalf("seed %d (%d→%d): %d arcs, %d edges", seed, u, v, len(arcs), len(spg.Edges()))
			}
			for k, e := range spg.Edges() {
				if arcs[k] != (qbs.Arc{From: e.U, To: e.W}) || !g.HasArc(e.U, e.W) {
					t.Fatalf("seed %d (%d→%d): edge %d = %v, arc %v", seed, u, v, k, e, arcs[k])
				}
			}

			want := qbs.OracleSPG(s, u, v)
			if ix.QueryInto(&spg, u, v); spg.Directed() || !spg.Equal(want) {
				t.Fatalf("seed %d: Index filled (%d,%d) with %v", seed, u, v, &spg)
			}
			if back := ix.Query(v, u); !spg.Equal(back) {
				t.Fatalf("seed %d: undirected SPG(%d,%d) != SPG(%d,%d)", seed, u, v, v, u)
			}
			dagU.Reset(&spg)
			if dyn.QueryInto(&spg, u, v); spg.Directed() || !spg.Equal(want) {
				t.Fatalf("seed %d: DynamicIndex filled (%d,%d) with %v", seed, u, v, &spg)
			}

			// S as a digraph: every edge of the undirected answer once,
			// oriented away from u, and as many paths.
			if six.QueryInto(&spg, u, v); !spg.Directed() || spg.Dist != want.Dist || spg.NumEdges() != want.NumEdges() {
				t.Fatalf("seed %d: symmetric DiIndex filled (%d→%d) with %v, undirected %v", seed, u, v, &spg, want)
			}
			if back := six.Query(v, u); u != v && spg.Dist != qbs.InfDist && spg.Equal(back) {
				t.Fatalf("seed %d: directed SPG(%d→%d) equals SPG(%d→%d)", seed, u, v, v, u)
			}
			dagD.Reset(&spg)
			pd, _ := dagD.CountPaths()
			pu, _ := dagU.CountPaths()
			if pd != pu || len(dagD.Vertices) != len(dagU.Vertices) {
				t.Fatalf("seed %d (%d,%d): %d paths over %d vertices directed, %d over %d undirected",
					seed, u, v, pd, len(dagD.Vertices), pu, len(dagU.Vertices))
			}
		}
	}
}
