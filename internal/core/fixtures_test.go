package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// testGraph is a fixture of either kind: an undirected graph or a
// digraph. The tables of this package run their rows through it, so a
// property is stated once and checked on both.
type testGraph struct {
	und *graph.Graph
	dir *graph.Graph
}

func undirected(g *graph.Graph) testGraph { return testGraph{und: g} }
func directed(g *graph.Graph) testGraph   { return testGraph{dir: g} }

func (tg testGraph) numVertices() int {
	if tg.dir != nil {
		return tg.dir.NumVertices()
	}
	return tg.und.NumVertices()
}

func (tg testGraph) build(opts Options) (*Index, error) {
	if tg.dir != nil {
		return Build(tg.dir, opts)
	}
	return Build(tg.und, opts)
}

func (tg testGraph) mustBuild(tb testing.TB, opts Options) *Index {
	tb.Helper()
	ix, err := tg.build(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// check answers (u, v) with sr and holds the answer against the
// fixture's scalar-BFS oracle and the independent Verify predicate.
func (tg testGraph) check(t *testing.T, sr *Searcher, u, v graph.V) {
	t.Helper()
	got, st := sr.QueryWithStats(u, v)
	if want := tg.oracle(u, v); !got.Equal(want) {
		t.Fatalf("got %v\nwant %v\nstats %+v (landmarks %v)", got, want, st, sr.ix.Landmarks())
	}
	var err error
	if g := tg.dir; g != nil {
		err = got.Verify(g.OutView(), bfs.Distances(g.OutView(), u), bfs.Distances(g.InView(), v))
	} else {
		err = got.Verify(tg.und, bfs.Distances(tg.und, u), bfs.Distances(tg.und, v))
	}
	if err != nil {
		t.Fatalf("%v: verify: %v", got, err)
	}
	checkStats(t, st, got.Dist, u, v)
}

func checkStats(t *testing.T, st QueryStats, dist int32, u, v graph.V) {
	t.Helper()
	if st.Dist != dist {
		t.Fatalf("SPG(%d,%d): stats dist %d, result dist %d", u, v, st.Dist, dist)
	}
	if st.DTop < st.Dist {
		t.Fatalf("SPG(%d,%d): d⊤=%d < dist=%d violates Corollary 4.6", u, v, st.DTop, st.Dist)
	}
}

// checkQueries verifies the answers of a fresh searcher over ix.
func checkQueries(t *testing.T, tg testGraph, ix *Index, pairs [][2]graph.V) {
	t.Helper()
	sr := NewSearcher(ix)
	for _, p := range pairs {
		tg.check(t, sr, p[0], p[1])
	}
}

// randomPairs draws count seeded pairs over n vertices.
func randomPairs(n, count int, seed int64) [][2]graph.V {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]graph.V, 0, count)
	for i := 0; i < count; i++ {
		pairs = append(pairs, [2]graph.V{graph.V(rng.Intn(n)), graph.V(rng.Intn(n))})
	}
	return pairs
}

// somePairs returns every ordered pair on a small fixture and a seeded
// sample on a large one.
func somePairs(n, count int, seed int64) [][2]graph.V {
	if n > 20 {
		return randomPairs(n, count, seed)
	}
	var pairs [][2]graph.V
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			pairs = append(pairs, [2]graph.V{graph.V(u), graph.V(v)})
		}
	}
	return pairs
}

// testDigraphs returns the directed fixtures: structured digraphs,
// seeded random ones, and one symmetrised undirected graph.
func testDigraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"dipath": graph.MustFromArcs(6, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
		}),
		"dicycle": graph.MustFromArcs(7, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
			{From: 4, To: 5}, {From: 5, To: 6}, {From: 6, To: 0},
		}),
		"diamond": graph.MustFromArcs(5, []graph.Arc{
			{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3},
			{From: 3, To: 4}, {From: 4, To: 0}, // back arc
		}),
		"asym": graph.MustFromArcs(4, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 0, To: 3}, {From: 3, To: 2},
		}),
		"der300":  graph.DirectedErdosRenyi(300, 1200, 3),
		"der150":  graph.DirectedErdosRenyi(150, 450, 4),
		"dsf200":  graph.DirectedScaleFree(200, 2, 5),
		"dsf300":  graph.DirectedScaleFree(300, 3, 6),
		"undirBA": graph.AsDirected(connected(graph.BarabasiAlbert(200, 3, 7))),
	}
}

// allTestGraphs is testGraphs plus testDigraphs, as fixtures.
func allTestGraphs(tb testing.TB) map[string]testGraph {
	all := map[string]testGraph{}
	for name, g := range testGraphs(tb) {
		all[name] = undirected(g)
	}
	for name, g := range testDigraphs() {
		all[name] = directed(g)
	}
	return all
}

// scalarReference rebuilds labels, σ, the meta state and Δ for the given
// landmark set with the scalar per-landmark QL/QN BFS (the retained
// landmarkBFS), once per direction, on a bare shell. ok is false when a
// BFS ran past the label range.
func scalarReference(t *testing.T, tg testGraph, landmarks []graph.V) (ref *Index, ok bool) {
	t.Helper()
	var shell *Index
	if tg.dir != nil {
		shell = bareIndex(t, nil, tg.dir.OutView(), tg.dir.InView(), landmarks)
	} else {
		shell = bareIndex(t, tg.und, tg.und, tg.und, landmarks)
	}
	n, R := tg.numVertices(), len(landmarks)
	shell.labelFrom = allocLabels(n, R)
	shell.labelTo = shell.labelFrom
	if !shell.symmetric() {
		shell.labelTo = allocLabels(n, R)
	}
	ws := newLabelWorkspace(n)
	var all []metaEdge
	for ri := range landmarks {
		metas, ok := shell.landmarkBFS(ri, shell.out, shell.labelFrom[ri], ws)
		if ok && !shell.symmetric() {
			_, ok = shell.landmarkBFS(ri, shell.in, shell.labelTo[ri], ws)
		}
		if !ok {
			return nil, false
		}
		all = append(all, metas...)
	}
	shell.finishMeta(all)
	shell.buildDelta()
	shell.build.LabelEntries = shell.countLabelEntries()
	return shell, true
}

// sameIndex reports the first difference between two indexes over the
// same graph and landmark set: both labellings, σ, the APSP, the
// meta-edge list with its id map, Δ and the entry count.
func sameIndex(a, b *Index) error {
	for i := range a.labelTo {
		if !reflect.DeepEqual(a.labelTo[i], b.labelTo[i]) {
			return fmt.Errorf("labelTo column %d differs", i)
		}
		if !reflect.DeepEqual(a.labelFrom[i], b.labelFrom[i]) {
			return fmt.Errorf("labelFrom column %d differs", i)
		}
	}
	switch {
	case !reflect.DeepEqual(a.ms.sigma, b.ms.sigma):
		return fmt.Errorf("sigma differs")
	case !reflect.DeepEqual(a.ms.distM, b.ms.distM):
		return fmt.Errorf("meta APSP differs")
	case !reflect.DeepEqual(a.ms.meta, b.ms.meta):
		return fmt.Errorf("meta edges differ: %d vs %d", len(a.ms.meta), len(b.ms.meta))
	case !reflect.DeepEqual(a.ms.metaID, b.ms.metaID):
		return fmt.Errorf("meta edge ids differ")
	case a.build.LabelEntries != b.build.LabelEntries:
		return fmt.Errorf("label entries: %d vs %d", a.build.LabelEntries, b.build.LabelEntries)
	}
	if a.delta != nil && b.delta != nil {
		for k := range a.delta {
			if !reflect.DeepEqual(a.delta[k], b.delta[k]) {
				return fmt.Errorf("delta[%d] differs", k)
			}
		}
	}
	return nil
}

// randomDigraph is a seeded digraph with a spine 0→…→n-1 through random
// earlier vertices, so that every vertex is reachable from vertex 0.
func randomDigraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewDirectedBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.V(rng.Intn(v)), graph.V(v))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	return b.MustBuild()
}
