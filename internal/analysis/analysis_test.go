package analysis

import (
	"math"
	"math/rand"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// dagFor builds the DAG of the oracle SPG for a pair.
func dagFor(g *graph.Graph, u, v graph.V) *DAG {
	return BuildDAG(bfs.OracleSPG(g, u, v), nil)
}

// diamond is two parallel 2-hop routes plus a long detour:
// 0-1-3, 0-2-3 and 0-4-5-3.
func diamond() *graph.Graph {
	return graph.MustFromEdges(6, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
}

func TestBuildDAGLayers(t *testing.T) {
	d := dagFor(diamond(), 0, 3)
	if d == nil || d.Dist != 2 {
		t.Fatalf("dag: %+v", d)
	}
	if len(d.Vertices) != 4 {
		t.Fatalf("vertices: %v", d.Vertices)
	}
	if got := d.Next(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Next(0) = %v", got)
	}
	if got := d.Prev(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Prev(3) = %v", got)
	}
	if d.Depth(0) != 0 || d.Depth(2) != 1 || d.Depth(3) != 2 || d.Depth(5) != -1 {
		t.Fatalf("depths: %d %d %d %d", d.Depth(0), d.Depth(2), d.Depth(3), d.Depth(5))
	}
}

func TestBuildDAGTrivial(t *testing.T) {
	g := diamond()
	spg := bfs.OracleSPG(g, 0, 0)
	if BuildDAG(spg, nil) != nil {
		t.Fatal("trivial SPG must give nil DAG")
	}
	// A reset DAG holds the trivial answer itself: one vertex, one path.
	var d DAG
	d.Reset(spg)
	if n, _ := d.CountPaths(); n != 1 || len(d.Vertices) != 1 || d.Vertices[0] != 0 {
		t.Fatalf("trivial DAG: %d paths over %v", n, d.Vertices)
	}
	if p := d.EnumeratePaths(0); len(p) != 1 || len(p[0]) != 1 {
		t.Fatalf("trivial paths = %v", p)
	}
	d.Reset(graph.NewSPG(0, 3)) // disconnected
	if n, _ := d.CountPaths(); n != 0 || len(d.Vertices) != 0 || d.EnumeratePaths(0) != nil {
		t.Fatalf("disconnected DAG: %d paths over %v", n, d.Vertices)
	}
}

func TestCountPaths(t *testing.T) {
	if n, sat := dagFor(diamond(), 0, 3).CountPaths(); n != 2 || sat {
		t.Fatalf("diamond paths = %d (sat %v), want 2", n, sat)
	}
	// 4-cycle opposite corners: 2 paths.
	if n, _ := dagFor(graph.Cycle(4), 0, 2).CountPaths(); n != 2 {
		t.Fatalf("cycle paths = %d, want 2", n)
	}
	// Grid corner to corner: binomial(4,2)=6 monotone paths on 3x3.
	if n, _ := dagFor(graph.Grid(3, 3), 0, 8).CountPaths(); n != 6 {
		t.Fatalf("grid paths = %d, want 6", n)
	}
	// Figure 1(b)-style: two vertices joined by three length-3 paths.
	three := graph.MustFromEdges(8, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 7},
		{U: 0, W: 3}, {U: 3, W: 4}, {U: 4, W: 7},
		{U: 0, W: 5}, {U: 5, W: 6}, {U: 6, W: 7},
	})
	if n, _ := dagFor(three, 0, 7).CountPaths(); n != 3 {
		t.Fatalf("three-route paths = %d, want 3", n)
	}
}

func TestCountPathsMatchesEnumeration(t *testing.T) {
	g, _ := graph.ErdosRenyi(80, 200, 7).LargestComponent()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		d := dagFor(g, u, v)
		if d == nil {
			continue
		}
		paths := d.EnumeratePaths(0)
		if n, sat := d.CountPaths(); int64(len(paths)) != n || sat {
			t.Fatalf("pair (%d,%d): %d enumerated vs %d counted (sat %v)", u, v, len(paths), n, sat)
		}
		for _, p := range paths {
			if int32(len(p)-1) != d.Dist {
				t.Fatalf("path %v has wrong length", p)
			}
			if p[0] != u || p[len(p)-1] != v {
				t.Fatalf("path %v has wrong endpoints", p)
			}
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	d := dagFor(graph.Grid(4, 4), 0, 15)
	if got := d.EnumeratePaths(3); len(got) != 3 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestCommonLinksEqualsCriticalVertices(t *testing.T) {
	// The two independent computations (path counting vs reachability)
	// must agree everywhere.
	g, _ := graph.BarabasiAlbert(150, 2, 9).LargestComponent()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 80; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		d := dagFor(g, u, v)
		if d == nil {
			continue
		}
		a, b := d.CommonLinks(), d.CriticalVertices()
		if len(a) != len(b) {
			t.Fatalf("pair (%d,%d): common links %v vs critical %v", u, v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pair (%d,%d): %v vs %v", u, v, a, b)
			}
		}
	}
}

func TestCommonLinksChain(t *testing.T) {
	// On a path graph every interior vertex is a common link.
	d := dagFor(graph.Path(5), 0, 4)
	links := d.CommonLinks()
	if len(links) != 3 || links[0] != 1 || links[2] != 3 {
		t.Fatalf("links = %v", links)
	}
	edges := d.CriticalEdges()
	if len(edges) != 4 {
		t.Fatalf("critical edges = %v", edges)
	}
}

func TestNoCriticalOnDisjointRoutes(t *testing.T) {
	d := dagFor(diamond(), 0, 3)
	if links := d.CommonLinks(); len(links) != 0 {
		t.Fatalf("diamond should have no common links: %v", links)
	}
	if edges := d.CriticalEdges(); len(edges) != 0 {
		t.Fatalf("diamond should have no critical edges: %v", edges)
	}
}

func TestPathBetweenness(t *testing.T) {
	d := dagFor(diamond(), 0, 3)
	pb := d.PathBetweenness()
	if pb[1] != 0.5 || pb[2] != 0.5 {
		t.Fatalf("betweenness = %v", pb)
	}
	chain := dagFor(graph.Path(4), 0, 3)
	pb = chain.PathBetweenness()
	if pb[1] != 1 || pb[2] != 1 {
		t.Fatalf("chain betweenness = %v", pb)
	}
}

func TestRerouteAdjacentPaths(t *testing.T) {
	d := dagFor(diamond(), 0, 3)
	paths := d.EnumeratePaths(0)
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	seq := d.Reroute(paths[0], paths[1], 0)
	if len(seq) != 2 {
		t.Fatalf("adjacent paths need a 1-step sequence, got %v", seq)
	}
}

func TestRerouteMultiStep(t *testing.T) {
	// Grid 2x3 corner-to-corner: paths 0-1-2-5, 0-1-4-5, 0-3-4-5 form a
	// chain of single-vertex swaps.
	g := graph.Grid(2, 3)
	d := dagFor(g, 0, 5)
	paths := d.EnumeratePaths(0)
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	seq := d.Reroute(paths[0], paths[2], 0)
	if len(seq) != 3 {
		t.Fatalf("want 2-swap sequence, got %v", seq)
	}
	for i := 1; i < len(seq); i++ {
		if !differByOneVertex(seq[i-1], seq[i]) {
			t.Fatalf("step %d differs in more than one vertex", i)
		}
	}
}

func TestRerouteImpossible(t *testing.T) {
	// Two vertex-disjoint length-3 routes: intermediate swaps would need
	// paths that do not exist.
	g := graph.MustFromEdges(8, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 7},
		{U: 0, W: 3}, {U: 3, W: 4}, {U: 4, W: 7},
	})
	d := dagFor(g, 0, 7)
	paths := d.EnumeratePaths(0)
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	if seq := d.Reroute(paths[0], paths[1], 0); seq != nil {
		t.Fatalf("expected no sequence, got %v", seq)
	}
}

func TestRerouteUnknownPath(t *testing.T) {
	d := dagFor(diamond(), 0, 3)
	bogus := []graph.V{0, 5, 3}
	if seq := d.Reroute(bogus, d.EnumeratePaths(1)[0], 0); seq != nil {
		t.Fatal("bogus path must not reroute")
	}
}

// diamondChain builds a chain of d diamonds: junction vertices
// j_0..j_d, with two parallel interior vertices between consecutive
// junctions. The (j_0, j_d) pair has exactly 2^d shortest paths.
func diamondChain(d int) (*graph.Graph, graph.V, graph.V) {
	n := (d + 1) + 2*d
	b := graph.NewBuilder(n)
	junction := func(i int) graph.V { return graph.V(i * 3) }
	for i := 0; i < d; i++ {
		j0, j1 := junction(i), junction(i+1)
		a, c := graph.V(i*3+1), graph.V(i*3+2)
		b.AddEdge(j0, a)
		b.AddEdge(j0, c)
		b.AddEdge(a, j1)
		b.AddEdge(c, j1)
	}
	return b.MustBuild(), junction(0), junction(d)
}

// TestCountPathsSaturates is the PR 4 overflow regression: a 64-diamond
// chain has 2^64 shortest paths, which used to wrap int64 negative
// (making /spg report negative counts and inverting Truncated). The
// count must now clamp to MaxInt64 and report saturation; one diamond
// short of the ceiling stays exact.
func TestCountPathsSaturates(t *testing.T) {
	// 62 diamonds: 2^62 fits in int64 — exact, not saturated.
	g, u, v := diamondChain(62)
	d := dagFor(g, u, v)
	if n, sat := d.CountPaths(); n != 1<<62 || sat {
		t.Fatalf("62 diamonds: %d (sat %v), want 2^62 exact", n, sat)
	}

	// 64 diamonds: 2^64 overflows — saturate, never go negative.
	g, u, v = diamondChain(64)
	d = dagFor(g, u, v)
	n, sat := d.CountPaths()
	if n != math.MaxInt64 || !sat {
		t.Fatalf("64 diamonds: %d (sat %v), want MaxInt64 saturated", n, sat)
	}
	if n < 0 {
		t.Fatalf("64 diamonds: negative count %d", n)
	}

	// The backward DP saturates consistently too.
	if to := d.pathsToTarget(); to[d.src] != math.MaxInt64 {
		t.Fatalf("pathsToTarget: %d", to[d.src])
	}

	// Saturated counts must not panic the derived analyses (CommonLinks
	// documents that its product test degrades to an approximation under
	// saturation). The count-free interdiction check stays exact: the
	// critical vertices are precisely the interior junctions.
	_ = d.CommonLinks()
	crit := d.CriticalVertices()
	if len(crit) != 63 {
		t.Fatalf("64-diamond chain: %d critical vertices, want 63 junctions", len(crit))
	}
	for _, v := range crit {
		if v%3 != 0 {
			t.Fatalf("critical vertex %d is not a junction", v)
		}
	}
}
