package analysis

import (
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// TestCallbackNeverInvoked pins what the frozen benchmark's shims return
// on the pairs it hits and on the server's golden pairs: BuildDAG is nil
// on a trivial and on a disconnected pair (and a nil result counts no
// path), CountDiPaths returns (1, false) and (0, false) there, both
// equal the answer's own CountPaths everywhere else, and the distance
// callback is dead.
func TestCallbackNeverInvoked(t *testing.T) {
	fail := func(graph.V) int32 {
		t.Fatal("distFromSource invoked")
		return 0
	}
	g := graph.Grid(4, 4)
	if n, _ := BuildDAG(bfs.OracleSPG(g, 0, 15), fail).CountPaths(); n != 20 {
		t.Fatalf("grid paths = %d, want 20", n)
	}
	if n, _ := CountDiPaths(bfs.OracleDiSPG(graph.AsDirected(g), 0, 15), fail); n != 20 {
		t.Fatalf("directed grid paths = %d, want 20", n)
	}

	// The server's golden fixtures: the diamond with a detour and an
	// isolated vertex 6, the small digraph, and the 64-diamond chain.
	diamond := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
	b := graph.NewDirectedBuilder(6)
	for _, a := range [][2]graph.V{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 0}, {5, 0}} {
		b.AddEdge(a[0], a[1])
	}
	digraph := b.MustBuild()
	cb := graph.NewBuilder(65 + 2*64)
	for i := graph.V(0); i < 64; i++ {
		cb.AddEdge(3*i, 3*i+1)
		cb.AddEdge(3*i, 3*i+2)
		cb.AddEdge(3*i+1, 3*i+3)
		cb.AddEdge(3*i+2, 3*i+3)
	}
	chain := cb.MustBuild()
	cases := []struct {
		name   string
		answer func(u, v graph.V) *graph.SPG
		pairs  [][2]graph.V
	}{
		{"static", func(u, v graph.V) *graph.SPG { return bfs.OracleSPG(diamond, u, v) },
			[][2]graph.V{{0, 3}, {3, 0}, {2, 2}, {0, 6}, {4, 3}, {0, 5}, {1, 2}}},
		{"directed", func(u, v graph.V) *graph.SPG { return bfs.OracleDiSPG(digraph, u, v) },
			[][2]graph.V{{0, 3}, {3, 0}, {0, 4}, {2, 2}, {0, 5}, {1, 4}}},
		{"saturated", func(u, v graph.V) *graph.SPG { return bfs.OracleSPG(chain, u, v) },
			[][2]graph.V{{0, 192}, {0, 186}}},
	}
	for _, c := range cases {
		for _, p := range c.pairs {
			u, v := p[0], p[1]
			want, wantSat := c.answer(u, v).CountPaths()
			dag := BuildDAG(c.answer(u, v), fail)
			n, sat := CountDiPaths(c.answer(u, v), fail)
			switch {
			case u == v:
				if dag != nil || n != 1 || sat {
					t.Fatalf("%s (%d,%d) trivial: BuildDAG %v, CountDiPaths (%d, %v)", c.name, u, v, dag, n, sat)
				}
			case want == 0:
				if dag != nil || n != 0 || sat {
					t.Fatalf("%s (%d,%d) disconnected: BuildDAG %v, CountDiPaths (%d, %v)", c.name, u, v, dag, n, sat)
				}
			default:
				if n != want || sat != wantSat {
					t.Fatalf("%s (%d,%d): CountDiPaths (%d, %v), CountPaths (%d, %v)", c.name, u, v, n, sat, want, wantSat)
				}
				if n, sat = dag.CountPaths(); n != want || sat != wantSat {
					t.Fatalf("%s (%d,%d): BuildDAG counts (%d, %v), CountPaths (%d, %v)", c.name, u, v, n, sat, want, wantSat)
				}
			}
			if u == v || want == 0 {
				if n, sat := dag.CountPaths(); n != 0 || sat {
					t.Fatalf("%s (%d,%d): a nil BuildDAG counts (%d, %v)", c.name, u, v, n, sat)
				}
			}
		}
	}
}
