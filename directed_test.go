package qbs_test

import (
	"errors"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qbs"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
)

func TestDirectedPublicAPI(t *testing.T) {
	b := qbs.NewDirectedBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 4)
	b.AddEdge(0, 2)
	b.AddEdge(2, 4)
	b.AddEdge(4, 3) // continues past the target
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 2})
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
	ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 16})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 120; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		want := qbs.OracleSPG(g, u, v)
		if got := ix.Query(u, v); !got.Equal(want) {
			t.Fatalf("directed Index(%d,%d) != oracle", u, v)
		}
		if got := qbs.BiBFS(g, u, v); !got.Equal(want) {
			t.Fatalf("DiBiBFS(%d,%d) != oracle", u, v)
		}
	}
}

func TestDirectedConcurrentQueries(t *testing.T) {
	g := graph.DirectedErdosRenyi(300, 1500, 8)
	ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 10})
	type pair struct{ u, v qbs.V }
	rng := rand.New(rand.NewSource(3))
	pairs := make([]pair, 64)
	want := make([]*qbs.SPG, len(pairs))
	for i := range pairs {
		pairs[i] = pair{qbs.V(rng.Intn(300)), qbs.V(rng.Intn(300))}
		want[i] = qbs.OracleSPG(g, pairs[i].u, pairs[i].v)
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
	dg := graph.AsDirected(ug)
	if dg.NumArcs() != 2*ug.NumEdges() {
		t.Fatalf("arcs = %d, want %d", dg.NumArcs(), 2*ug.NumEdges())
	}
	ix := qbs.MustBuildIndex(dg, qbs.Options{NumLandmarks: 3})
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
	ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 14})
	spg := new(qbs.SPG)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 120; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		want := qbs.OracleSPG(g, u, v)
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
		ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: R})
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
			if want := qbs.OracleSPG(g, pairs[i].U, pairs[i].V); !spg.Equal(want) {
				t.Fatalf("R=%d: batch result %d != oracle", R, i)
			}
		}
	}
}

// TestDiQueryBatchRecoversFromPanic mirrors the undirected contract: a
// poisoned pair loses only its own slot.
func TestDiQueryBatchRecoversFromPanic(t *testing.T) {
	g := graph.DirectedScaleFree(200, 3, 67)
	ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 8})
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
	ix, err := qbs.CreateDiStore(dir, g, qbs.DiStoreOptions{Index: qbs.Options{NumLandmarks: 10}})
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
		want := qbs.OracleSPG(g, u, v)
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
// from an Index over a directed graph, undirected from one over an
// undirected graph or from a DynamicIndex; Edges() of a directed answer
// is what the benchmark's Arcs() shim returns, element for element, and
// matches the directed oracle; Equal is sensitive to the order of the
// pair iff the answer is directed; and layering an answer of either
// orientation counts the same paths — over S as a digraph, the directed
// and the undirected index's.
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
		dix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 5})
		six := qbs.MustBuildIndex(graph.AsDirected(s), qbs.Options{NumLandmarks: 5})
		ix := qbs.MustBuildIndex(s, qbs.Options{NumLandmarks: 5})
		dyn, err := qbs.BuildDynamicIndex(s, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 5}})
		if err != nil {
			t.Fatal(err)
		}

		var spg qbs.SPG // one zero value through every kind of index, in turn
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			u, v := qbs.V(rng.Intn(n)), qbs.V(rng.Intn(n))

			if dix.QueryInto(&spg, u, v); !spg.Directed() || !spg.Equal(qbs.OracleSPG(g, u, v)) {
				t.Fatalf("seed %d: directed Index filled (%d→%d) with %v", seed, u, v, &spg)
			}
			arcs := spg.Arcs()
			if len(arcs) != len(spg.Edges()) {
				t.Fatalf("seed %d (%d→%d): %d arcs, %d edges", seed, u, v, len(arcs), len(spg.Edges()))
			}
			for k, e := range spg.Edges() {
				if arcs[k] != (qbs.Arc{From: e.U, To: e.W}) || !g.HasEdge(e.U, e.W) {
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
			pu, _ := spg.CountPaths()
			vu, paths := len(spg.Vertices()), spg.EnumeratePaths(16)
			if dyn.QueryInto(&spg, u, v); spg.Directed() || !spg.Equal(want) {
				t.Fatalf("seed %d: DynamicIndex filled (%d,%d) with %v", seed, u, v, &spg)
			}
			if pn, _ := spg.CountPaths(); pn != pu || !reflect.DeepEqual(spg.EnumeratePaths(16), paths) {
				t.Fatalf("seed %d (%d,%d): the dynamic answer counts %d paths, the static one %d", seed, u, v, pn, pu)
			}

			// S as a digraph: every edge of the undirected answer once,
			// oriented away from u, and as many paths.
			if six.QueryInto(&spg, u, v); !spg.Directed() || spg.Dist != want.Dist || spg.NumEdges() != want.NumEdges() {
				t.Fatalf("seed %d: symmetric directed Index filled (%d→%d) with %v, undirected %v", seed, u, v, &spg, want)
			}
			if back := six.Query(v, u); u != v && spg.Dist != qbs.InfDist && spg.Equal(back) {
				t.Fatalf("seed %d: directed SPG(%d→%d) equals SPG(%d→%d)", seed, u, v, v, u)
			}
			pd, _ := spg.CountPaths()
			if vd := len(spg.Vertices()); pd != pu || vd != vu {
				t.Fatalf("seed %d (%d,%d): %d paths over %d vertices directed, %d over %d undirected",
					seed, u, v, pd, vd, pu, vu)
			}
		}
	}
}

// TestDirectedGraphRefusals: the entry points with no directed
// implementation refuse a directed graph with an error, before they
// build or write anything — the dynamic index and its store (updates
// are undirected), and the landmark strategies that rank an undirected
// graph — while degree and random landmarks build; and the directed
// store refuses an undirected graph.
func TestDirectedGraphRefusals(t *testing.T) {
	g := graph.DirectedScaleFree(80, 2, 9)
	if _, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 4}}); !errors.Is(err, dynamic.ErrDirected) {
		t.Fatalf("BuildDynamicIndex over a directed graph: %v", err)
	}
	dir := t.TempDir()
	if _, err := qbs.CreateStore(dir, g, qbs.StoreOptions{Index: qbs.Options{NumLandmarks: 4}}); !errors.Is(err, dynamic.ErrDirected) {
		t.Fatalf("CreateStore over a directed graph: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("CreateStore refused, yet left %d entries (%v)", len(entries), err)
	}
	for _, s := range []qbs.Strategy{qbs.StrategyCoverage, qbs.StrategyBetweenness} {
		if _, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 4, Strategy: s}); err == nil || !strings.Contains(err.Error(), string(s)) {
			t.Fatalf("BuildIndex with %s over a directed graph: %v", s, err)
		}
	}
	for _, s := range []qbs.Strategy{qbs.StrategyDegree, qbs.StrategyRandom} {
		ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 4, Strategy: s})
		if err != nil {
			t.Fatalf("BuildIndex with %s over a directed graph: %v", s, err)
		}
		if got := ix.Query(0, 5); !got.Equal(qbs.OracleSPG(g, 0, 5)) {
			t.Fatalf("%s landmarks: %v", s, got)
		}
	}
	if _, err := qbs.CreateDiStore(t.TempDir(), graph.Grid(3, 3), qbs.DiStoreOptions{}); err == nil {
		t.Fatal("CreateDiStore accepted an undirected graph")
	}
}
