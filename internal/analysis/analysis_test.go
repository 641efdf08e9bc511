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
}
