package core

import (
	"reflect"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// Tests of what a direction adds: that the undirected index is the
// aliasing case of the directed one, that transposing the graph
// transposes the answer, and the digraph-only behaviours (asymmetric
// distances, one-way reachability, reassembly from persisted state).

// TestDirectedMatchesUndirectedOnSymmetricGraphs is a three-way
// differential: Build(g), BuildDirected(AsDirected(g)) and the scalar
// BFS oracle must agree on labels (the digraph's two labellings are
// equal to each other and to the undirected one), σ, the meta APSP,
// distances and — once the arcs lose their orientation — the SPG edge
// set, in which every undirected edge appears as exactly one arc,
// oriented away from u.
func TestDirectedMatchesUndirectedOnSymmetricGraphs(t *testing.T) {
	for name, ug := range map[string]*graph.Graph{
		"er200":     connected(graph.ErdosRenyi(200, 400, 1)),
		"ba150":     connected(graph.BarabasiAlbert(150, 3, 11)),
		"paperFig4": paperFigure4Graph(),
		"paperFig3": paperFigure3Graph(),
	} {
		t.Run(name, func(t *testing.T) {
			dg := graph.AsDirected(ug)
			n := ug.NumVertices()
			und := MustBuild(ug, Options{NumLandmarks: min(8, n)})
			dir, err := BuildDirected(dg, Options{NumLandmarks: min(8, n)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(und.Landmarks(), dir.Landmarks()) {
				t.Fatalf("landmarks: %v undirected, %v directed", und.Landmarks(), dir.Landmarks())
			}
			if !reflect.DeepEqual(dir.labelTo, dir.labelFrom) {
				t.Fatal("labelTo != labelFrom on a symmetric digraph")
			}
			if !reflect.DeepEqual(dir.labelTo, und.labelTo) {
				t.Fatal("directed labels differ from undirected labels")
			}
			if !reflect.DeepEqual(dir.ms.sigma, und.ms.sigma) || !reflect.DeepEqual(dir.ms.distM, und.ms.distM) {
				t.Fatal("directed σ / meta APSP differ from undirected")
			}
			for i, r := range und.Landmarks() {
				dist := bfs.Distances(ug, r)
				for v, d := range und.labelTo[i] {
					if d != NoEntry && int32(d) != dist[v] {
						t.Fatalf("label (%d → %d) = %d, BFS says %d", v, r, d, dist[v])
					}
				}
			}

			su, sd := NewSearcher(und), NewSearcher(dir)
			for _, p := range somePairs(n, 80, 13) {
				u, v := p[0], p[1]
				oracle := bfs.OracleSPG(ug, u, v)
				if du, dd := su.Distance(u, v), sd.Distance(u, v); du != oracle.Dist || dd != oracle.Dist {
					t.Fatalf("Distance(%d,%d): undirected %d, directed %d, oracle %d", u, v, du, dd, oracle.Dist)
				}
				if got := su.Query(u, v); !got.Equal(oracle) {
					t.Fatalf("undirected SPG(%d,%d) = %v, oracle %v", u, v, got, oracle)
				}
				arcs := sd.Query(u, v)
				if !arcs.Equal(bfs.OracleDiSPG(dg, u, v)) {
					t.Fatalf("directed SPG(%d→%d) = %v, oracle %v", u, v, arcs, bfs.OracleDiSPG(dg, u, v))
				}
				// The directed answer with its orientation dropped: arcs normalised.
				got := graph.NewSPG(u, v)
				got.Dist = arcs.Dist
				for _, a := range arcs.Edges() {
					got.AddEdge(a.U, a.W)
				}
				if !got.Equal(oracle) {
					t.Fatalf("directed SPG(%d,%d) normalised = %v, oracle %v", u, v, got, oracle)
				}
				if arcs.NumEdges() != oracle.NumEdges() {
					t.Fatalf("(%d,%d): %d arcs vs %d edges", u, v, arcs.NumEdges(), oracle.NumEdges())
				}
			}
		})
	}
}

// TestReversedGraphReversesAnswers: SPG(u→v) on G is SPG(v→u) on the
// transpose Gᵀ with every arc flipped, labelTo on G is labelFrom on Gᵀ,
// and σ transposes.
func TestReversedGraphReversesAnswers(t *testing.T) {
	for name, g := range testDigraphs() {
		t.Run(name, func(t *testing.T) {
			n := g.NumVertices()
			var flipped []graph.Arc
			for _, a := range g.Arcs() {
				flipped = append(flipped, graph.Arc{From: a.To, To: a.From})
			}
			gt := graph.MustDiFromArcs(n, flipped)
			ix, err := BuildDirected(g, Options{NumLandmarks: min(6, n)})
			if err != nil {
				t.Fatal(err)
			}
			ixt, err := BuildDirected(gt, Options{Landmarks: ix.Landmarks()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ix.labelTo, ixt.labelFrom) || !reflect.DeepEqual(ix.labelFrom, ixt.labelTo) {
				t.Fatal("labellings do not swap under transposition")
			}
			R := ix.numLand
			for a := 0; a < R; a++ {
				for b := 0; b < R; b++ {
					if ix.ms.Sigma(a, b) != ixt.ms.Sigma(b, a) || ix.ms.Dist(a, b) != ixt.ms.Dist(b, a) {
						t.Fatalf("σ / d_M (%d,%d) do not transpose", a, b)
					}
				}
			}
			sr, srt := NewSearcher(ix), NewSearcher(ixt)
			got, rev := new(graph.SPG), new(graph.SPG)
			for _, p := range somePairs(n, 80, 29) {
				u, v := p[0], p[1]
				sr.QueryInto(got, u, v)
				srt.QueryInto(rev, v, u)
				want := graph.NewDiSPG(u, v)
				want.Dist = rev.Dist
				for _, a := range rev.Edges() {
					want.AddEdge(a.W, a.U)
				}
				if !got.Equal(want) {
					t.Fatalf("SPG(%d→%d) = %v, flipped SPG(%d→%d) on the transpose = %v", u, v, got, v, u, want)
				}
			}
		})
	}
}

func TestDirectedAsymmetry(t *testing.T) {
	// d(u,v) may differ from d(v,u); both directions must be exact.
	tg := directed(testDigraphs()["asym"])
	sr := NewSearcher(tg.mustBuild(t, Options{NumLandmarks: 2}))
	tg.check(t, sr, 0, 2)
	tg.check(t, sr, 2, 0)
	if sr.Distance(0, 2) != 2 || sr.Distance(2, 0) != 1 {
		t.Fatalf("d(0→2) = %d, d(2→0) = %d, want 2 and 1", sr.Distance(0, 2), sr.Distance(2, 0))
	}
}

func TestDirectedDisconnectedAndTrivial(t *testing.T) {
	g := graph.MustDiFromArcs(4, []graph.Arc{{From: 0, To: 1}, {From: 2, To: 3}})
	ix, err := BuildDirected(g, Options{NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	sr := NewSearcher(ix)
	s := new(graph.SPG)
	if sr.QueryInto(s, 0, 3); s.Dist != graph.InfDist || s.NumEdges() != 0 {
		t.Fatalf("disconnected: %v", s)
	}
	if sr.QueryInto(s, 1, 0); s.Dist != graph.InfDist {
		t.Fatalf("one-way arc reversed must be unreachable: %v", s)
	}
	if sr.QueryInto(s, 2, 2); s.Dist != 0 || s.NumEdges() != 0 {
		t.Fatalf("trivial: %v", s)
	}
}

// TestAssembleDirectedRoundTrip pins State/AssembleDirected: an
// index reassembled from its own frozen state is the same index and
// answers identically.
func TestAssembleDirectedRoundTrip(t *testing.T) {
	g := graph.DirectedScaleFree(250, 3, 43)
	tg := directed(g)
	ix := tg.mustBuild(t, Options{NumLandmarks: 10})
	re, err := AssembleDirected(g, ix.State())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameIndex(ix, re); err != nil {
		t.Fatalf("reassembled index: %v", err)
	}
	checkQueries(t, tg, re, somePairs(g.NumVertices(), 100, 47))

	st := ix.State()
	st.Delta = st.Delta[1:]
	if _, err := AssembleDirected(g, st); err == nil {
		t.Fatal("AssembleDirected accepted a short Δ")
	}
}
