package ppl

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

func connected(g *graph.Graph) *graph.Graph {
	lc, _ := g.LargestComponent()
	return lc
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path10":    graph.Path(10),
		"cycle9":    graph.Cycle(9),
		"star15":    graph.Star(15),
		"complete7": graph.Complete(7),
		"grid5x5":   graph.Grid(5, 5),
		"er150":     connected(graph.ErdosRenyi(150, 320, 1)),
		"ba150":     connected(graph.BarabasiAlbert(150, 3, 2)),
		"ws120":     connected(graph.WattsStrogatz(120, 4, 0.2, 3)),
		"disconnected": graph.MustFromEdges(8, []graph.Edge{
			{U: 0, W: 1}, {U: 1, W: 2}, {U: 4, W: 5}, {U: 5, W: 6}, {U: 6, W: 7},
		}),
	}
}

func TestDistanceMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		for _, withParents := range []bool{false, true} {
			ix := MustBuild(g, Options{WithParents: withParents})
			rng := rand.New(rand.NewSource(7))
			n := g.NumVertices()
			for i := 0; i < 150; i++ {
				u := graph.V(rng.Intn(n))
				v := graph.V(rng.Intn(n))
				want := bfs.Distances(g, u)[v]
				if want == bfs.Infinity {
					want = graph.InfDist
				}
				if got := ix.Distance(u, v); got != want {
					t.Fatalf("%s parents=%v: dist(%d,%d)=%d want %d", name, withParents, u, v, got, want)
				}
			}
		}
	}
}

func TestPPLQueryMatchesOracle(t *testing.T) {
	for name, g := range testGraphs() {
		ix := MustBuild(g, Options{})
		n := g.NumVertices()
		var pairs [][2]graph.V
		if n <= 20 {
			for u := 0; u < n; u++ {
				for v := u; v < n; v++ {
					pairs = append(pairs, [2]graph.V{graph.V(u), graph.V(v)})
				}
			}
		} else {
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 120; i++ {
				pairs = append(pairs, [2]graph.V{graph.V(rng.Intn(n)), graph.V(rng.Intn(n))})
			}
		}
		for _, p := range pairs {
			got := ix.Query(p[0], p[1])
			want := bfs.OracleSPG(g, p[0], p[1])
			if !got.Equal(want) {
				t.Fatalf("%s: PPL SPG(%d,%d) = %v, want %v", name, p[0], p[1], got, want)
			}
		}
	}
}

func TestParentPPLQueryMatchesOracle(t *testing.T) {
	for name, g := range testGraphs() {
		ix := MustBuild(g, Options{WithParents: true})
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 150; i++ {
			u := graph.V(rng.Intn(n))
			v := graph.V(rng.Intn(n))
			got := ix.Query(u, v)
			want := bfs.OracleSPG(g, u, v)
			if !got.Equal(want) {
				t.Fatalf("%s: ParentPPL SPG(%d,%d) = %v, want %v", name, u, v, got, want)
			}
		}
	}
}

func TestTwoHopPathCover(t *testing.T) {
	// Definition 3.2 on small graphs by exhaustive path enumeration.
	for _, name := range []string{"path10", "cycle9", "star15", "complete7", "grid5x5"} {
		g := testGraphs()[name]
		ix := MustBuild(g, Options{})
		distFn := func(a, b graph.V) int32 {
			d := bfs.Distances(g, a)[b]
			if d == bfs.Infinity {
				return graph.InfDist
			}
			return d
		}
		if bad, ok := ix.VerifyPathCover(distFn); !ok {
			t.Fatalf("%s: 2-hop path cover violated for pair %v", name, bad)
		}
	}
}

func TestParentSetsAreExact(t *testing.T) {
	// Every stored parent must lie one step closer to the landmark, and
	// the set must contain all such neighbours.
	g := connected(graph.ErdosRenyi(100, 220, 5))
	ix := MustBuild(g, Options{WithParents: true})
	for v := graph.V(0); v < graph.V(g.NumVertices()); v++ {
		for _, e := range ix.labels[v] {
			root := ix.order[e.rank]
			dist := bfs.Distances(g, root)
			want := map[graph.V]bool{}
			for _, w := range g.Neighbors(v) {
				if dist[w] == e.dist-1 {
					want[w] = true
				}
			}
			if len(want) != len(e.parents) {
				t.Fatalf("vertex %d root %d: %d parents stored, want %d", v, root, len(e.parents), len(want))
			}
			for _, w := range e.parents {
				if !want[w] {
					t.Fatalf("vertex %d root %d: bogus parent %d", v, root, w)
				}
			}
		}
	}
}

func TestLabelsSortedAndExact(t *testing.T) {
	g := connected(graph.BarabasiAlbert(120, 3, 9))
	ix := MustBuild(g, Options{})
	for v := graph.V(0); v < graph.V(g.NumVertices()); v++ {
		es := ix.labels[v]
		for i, e := range es {
			if i > 0 && es[i-1].rank >= e.rank {
				t.Fatalf("vertex %d: labels not strictly rank-sorted", v)
			}
			root := ix.order[e.rank]
			if want := bfs.Distances(g, root)[v]; want != e.dist {
				t.Fatalf("vertex %d root %d: label dist %d want %d", v, root, e.dist, want)
			}
		}
	}
}

func TestPruningReducesLabels(t *testing.T) {
	// PPL labels must be far smaller than the naive |V|² labelling on a
	// hub-dominated graph.
	g := connected(graph.BarabasiAlbert(300, 3, 11))
	ix := MustBuild(g, Options{})
	n := int64(g.NumVertices())
	if ix.NumEntries() >= n*n/4 {
		t.Fatalf("pruning ineffective: %d entries for %d vertices", ix.NumEntries(), n)
	}
}

func TestSizeAccounting(t *testing.T) {
	g := graph.Cycle(12)
	ppl := MustBuild(g, Options{})
	par := MustBuild(g, Options{WithParents: true})
	if ppl.SizeBytes() != ppl.NumEntries()*5 {
		t.Fatal("PPL size accounting")
	}
	if par.SizeBytes() <= ppl.SizeBytes() {
		t.Fatal("ParentPPL must be larger than PPL")
	}
}

func TestBudgets(t *testing.T) {
	g := connected(graph.ErdosRenyi(400, 1200, 17))
	if _, err := Build(g, Options{MaxTime: time.Nanosecond}); err != ErrTimeBudget {
		t.Fatalf("time budget: err = %v", err)
	}
	if _, err := Build(g, Options{MaxLabelBytes: 16}); err != ErrSizeBudget {
		t.Fatalf("size budget: err = %v", err)
	}
}

func TestQuickPPLProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8, withParents bool) bool {
		n := 6 + int(nRaw)%50
		m := n + int(mRaw)%(2*n)
		g := connected(graph.ErdosRenyi(n, m, seed))
		ix := MustBuild(g, Options{WithParents: withParents})
		rng := rand.New(rand.NewSource(seed + 1))
		for i := 0; i < 8; i++ {
			u := graph.V(rng.Intn(g.NumVertices()))
			v := graph.V(rng.Intn(g.NumVertices()))
			if !ix.Query(u, v).Equal(bfs.OracleSPG(g, u, v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
