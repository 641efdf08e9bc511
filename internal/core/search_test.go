package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"qbs/internal/bfs"
	"qbs/internal/datasets"
	"qbs/internal/graph"
)

// testGraphs returns a diverse set of fixtures: structured graphs and
// seeded random graphs across the generator families.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	gs := map[string]*graph.Graph{
		"path10":      graph.Path(10),
		"cycle9":      graph.Cycle(9),
		"star20":      graph.Star(20),
		"complete8":   graph.Complete(8),
		"grid6x7":     graph.Grid(6, 7),
		"paperFig4":   paperFigure4Graph(),
		"paperFig3":   paperFigure3Graph(),
		"er200":       connected(graph.ErdosRenyi(200, 400, 1)),
		"er300sparse": connected(graph.ErdosRenyi(300, 360, 2)),
		"ba200":       connected(graph.BarabasiAlbert(200, 3, 3)),
		"ba400dense":  connected(graph.BarabasiAlbert(400, 8, 4)),
		"ws150":       connected(graph.WattsStrogatz(150, 6, 0.2, 5)),
		"twoCliques":  twoCliquesBridge(),
		"disconnected": graph.MustFromEdges(10, []graph.Edge{
			{U: 0, W: 1}, {U: 1, W: 2}, {U: 3, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
			{U: 6, W: 7}, {U: 7, W: 8}, {U: 8, W: 9},
		}),
	}
	return gs
}

func connected(g *graph.Graph) *graph.Graph {
	lc, _ := g.LargestComponent()
	return lc
}

// paperFigure4Graph reproduces the 14-vertex running example of Figures
// 2/4/5/6 (1-indexed in the paper; 0-indexed here as paper id − 1).
func paperFigure4Graph() *graph.Graph {
	edges := [][2]int{
		{1, 3}, {1, 2}, {2, 3}, // 2-4, 2-3, 3-4 in paper ids
		{0, 3}, {0, 4}, {0, 5}, {0, 13},
		{3, 5}, {4, 5},
		{1, 6}, {6, 7}, {1, 8},
		{7, 8}, {8, 9}, {7, 10}, {9, 10}, {9, 11},
		{2, 11}, {2, 12}, {12, 13}, {10, 11}, {4, 13},
		{1, 13}, {6, 8},
	}
	b := graph.NewBuilder(14)
	for _, e := range edges {
		b.AddEdge(graph.V(e[0]), graph.V(e[1]))
	}
	return b.MustBuild()
}

// paperFigure3Graph is the 7-vertex example of Figure 3 (paper ids 1..7
// mapped to 0..6).
func paperFigure3Graph() *graph.Graph {
	edges := [][2]int{
		{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 4}, {1, 5}, {4, 5}, {4, 6},
	}
	b := graph.NewBuilder(7)
	for _, e := range edges {
		b.AddEdge(graph.V(e[0]), graph.V(e[1]))
	}
	return b.MustBuild()
}

func twoCliquesBridge() *graph.Graph {
	b := graph.NewBuilder(12)
	for u := 0; u < 5; u++ {
		for w := u + 1; w < 5; w++ {
			b.AddEdge(graph.V(u), graph.V(w))
		}
	}
	for u := 6; u < 12; u++ {
		for w := u + 1; w < 12; w++ {
			b.AddEdge(graph.V(u), graph.V(w))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	return b.MustBuild()
}

// samplePairs draws count seeded vertex pairs of g.
func samplePairs(g *graph.Graph, count int, seed int64) [][2]graph.V {
	return randomPairs(g.NumVertices(), count, seed)
}

func TestQueryMatchesOracle(t *testing.T) {
	for name, tg := range allTestGraphs(t) {
		n := tg.numVertices()
		for _, k := range []int{1, 2, 3, 4, 8, 20} {
			if k > n {
				continue
			}
			t.Run(fmt.Sprintf("%s/R=%d", name, k), func(t *testing.T) {
				ix := tg.mustBuild(t, Options{NumLandmarks: k, Parallelism: 1})
				checkQueries(t, tg, ix, somePairs(n, 120, int64(k)*7+1))
			})
		}
	}
}

func TestQueryLandmarkEndpoints(t *testing.T) {
	graphs := allTestGraphs(t)
	graphs["dsf150"] = directed(graph.DirectedScaleFree(150, 2, 9))
	for name, tg := range graphs {
		t.Run(name, func(t *testing.T) {
			n := tg.numVertices()
			ix := tg.mustBuild(t, Options{NumLandmarks: min(5, n)})
			lands := ix.Landmarks()
			var pairs [][2]graph.V
			rng := rand.New(rand.NewSource(11))
			for _, r := range lands {
				// landmark ↔ random vertex, and landmark ↔ landmark
				pairs = append(pairs, [2]graph.V{r, graph.V(rng.Intn(n))})
				pairs = append(pairs, [2]graph.V{graph.V(rng.Intn(n)), r})
				pairs = append(pairs, [2]graph.V{r, lands[rng.Intn(len(lands))]})
				pairs = append(pairs, [2]graph.V{r, r})
			}
			checkQueries(t, tg, ix, pairs)
		})
	}
}

func TestQueryAllLandmarkCounts(t *testing.T) {
	// Sweep |R| from 0 effectively 1 up to |V| on a small graph:
	// every vertex a landmark is a degenerate but valid configuration.
	g := paperFigure4Graph()
	for k := 1; k <= g.NumVertices(); k++ {
		ix := MustBuild(g, Options{NumLandmarks: k})
		var pairs [][2]graph.V
		for u := 0; u < g.NumVertices(); u++ {
			for v := u; v < g.NumVertices(); v++ {
				pairs = append(pairs, [2]graph.V{graph.V(u), graph.V(v)})
			}
		}
		checkQueries(t, undirected(g), ix, pairs)
	}
}

func TestLabellingMatchesDefinition(t *testing.T) {
	// Definition 4.2: (r, δ) ∈ L(u) iff δ = d_G(u, r) and some shortest
	// u–r path avoids all other landmarks — equivalently, the distance
	// between r and u in G[V \ (R \ {r})] equals d_G(u, r). With a
	// direction: labelFrom holds d(r→u) over the out-arcs, labelTo holds
	// d(u→r), which is a BFS from r over the in-arcs. An undirected
	// fixture checks its one labelling under both names.
	graphs := allTestGraphs(t)
	graphs["dsf120"] = directed(graph.DirectedScaleFree(120, 2, 17))
	for name, tg := range graphs {
		t.Run(name, func(t *testing.T) {
			n := tg.numVertices()
			ix := tg.mustBuild(t, Options{NumLandmarks: min(4, n)})
			for _, dir := range []struct {
				name   string
				adj    graph.Adjacency
				labels [][]uint8
			}{{"labelFrom", ix.out, ix.labelFrom}, {"labelTo", ix.in, ix.labelTo}} {
				for i, r := range ix.Landmarks() {
					full := bfs.Distances(dir.adj, r)
					avoid := avoidanceDistances(dir.adj, ix, r)
					for v := 0; v < n; v++ {
						d := dir.labels[i][v]
						if ix.IsLandmark(graph.V(v)) {
							if d != NoEntry {
								t.Fatalf("%s: landmark %d must not carry labels, has (%d,%d)", dir.name, v, i, d)
							}
							continue
						}
						shouldHave := full[v] != bfs.Infinity && avoid[v] == full[v]
						if (d != NoEntry) != shouldHave {
							t.Fatalf("%s: vertex %d landmark %d: label presence = %v, want %v (d=%d avoid=%d)",
								dir.name, v, r, d != NoEntry, shouldHave, full[v], avoid[v])
						}
						if d != NoEntry && int32(d) != full[v] {
							t.Fatalf("%s: vertex %d landmark %d: label dist %d, want %d", dir.name, v, r, d, full[v])
						}
					}
				}
			}
		})
	}
}

// avoidanceDistances computes BFS distances from r over adj with all
// other landmarks removed.
func avoidanceDistances(adj graph.Adjacency, ix *Index, r graph.V) []int32 {
	dist := make([]int32, adj.NumVertices())
	for i := range dist {
		dist[i] = bfs.Infinity
	}
	dist[r] = 0
	queue := []graph.V{r}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range adj.Neighbors(u) {
			if dist[w] == bfs.Infinity && !ix.IsLandmark(w) {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestMetaGraphMatchesDefinition(t *testing.T) {
	// Definition 4.1: (r, r') ∈ E_R iff some shortest r–r' path avoids
	// other landmarks; σ(r, r') = d_G(r, r').
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			k := 5
			if k > g.NumVertices() {
				k = g.NumVertices()
			}
			ix := MustBuild(g, Options{NumLandmarks: k})
			lands := ix.Landmarks()
			for i := 0; i < k; i++ {
				full := bfs.Distances(g, lands[i])
				sub := g.InducedSubgraph(func(v graph.V) bool {
					return v == lands[i] || !ix.IsLandmark(v)
				})
				for j := 0; j < k; j++ {
					if i == j {
						continue
					}
					// allow r' itself in the avoidance graph
					sub2 := g.InducedSubgraph(func(v graph.V) bool {
						return v == lands[i] || v == lands[j] || !ix.IsLandmark(v)
					})
					_ = sub
					avoid := bfs.Distances(sub2, lands[i])
					w, exists := ix.MetaEdgeWeight(i, j)
					shouldExist := full[lands[j]] != bfs.Infinity && avoid[lands[j]] == full[lands[j]]
					if exists != shouldExist {
						t.Fatalf("meta edge (%d,%d): exists=%v want %v", lands[i], lands[j], exists, shouldExist)
					}
					if exists && w != full[lands[j]] {
						t.Fatalf("meta edge (%d,%d): σ=%d want %d", lands[i], lands[j], w, full[lands[j]])
					}
				}
			}
		})
	}
}

func TestMetaDistEqualsGraphDist(t *testing.T) {
	// d_M(r, r') = d_G(r, r') for all landmark pairs: shortest paths
	// between landmarks decompose into meta-edges.
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			k := 6
			if k > g.NumVertices() {
				k = g.NumVertices()
			}
			ix := MustBuild(g, Options{NumLandmarks: k})
			lands := ix.Landmarks()
			for i := 0; i < k; i++ {
				dist := bfs.Distances(g, lands[i])
				for j := 0; j < k; j++ {
					want := dist[lands[j]]
					got := ix.MetaDist(i, j)
					if want == bfs.Infinity {
						if got != graph.InfDist {
							t.Fatalf("d_M(%d,%d)=%d want inf", lands[i], lands[j], got)
						}
						continue
					}
					if got != want {
						t.Fatalf("d_M(%d,%d)=%d want %d", lands[i], lands[j], got, want)
					}
				}
			}
		})
	}
}

func TestSketchUpperBoundTight(t *testing.T) {
	// d⊤ equals the length of the shortest u–v path through at least one
	// landmark: min over r of d(u,r) + d(r,v).
	g := connected(graph.ErdosRenyi(150, 300, 9))
	ix := MustBuild(g, Options{NumLandmarks: 8})
	sr := NewSearcher(ix)
	landDist := make([][]int32, ix.NumLandmarks())
	for i, r := range ix.Landmarks() {
		landDist[i] = bfs.Distances(g, r)
	}
	for _, p := range samplePairs(g, 200, 17) {
		u, v := p[0], p[1]
		if u == v {
			continue
		}
		want := graph.InfDist
		for i := range landDist {
			du, dv := landDist[i][u], landDist[i][v]
			if du != bfs.Infinity && dv != bfs.Infinity && du+dv < want {
				want = du + dv
			}
		}
		sk := sr.Sketch(u, v)
		if sk.DTop != want {
			t.Fatalf("d⊤(%d,%d)=%d want %d", u, v, sk.DTop, want)
		}
	}
}

func TestDeterministicParallelLabelling(t *testing.T) {
	// Lemma 5.2: the labelling scheme is unique for a landmark set, so
	// sequential and parallel construction agree bit-for-bit.
	for name, tg := range map[string]testGraph{
		"ba500":  undirected(connected(graph.BarabasiAlbert(500, 4, 21))),
		"dsf300": directed(graph.DirectedScaleFree(300, 3, 19)),
	} {
		seq := tg.mustBuild(t, Options{NumLandmarks: 16, Parallelism: 1})
		par := tg.mustBuild(t, Options{NumLandmarks: 16, Parallelism: 8})
		if err := sameIndex(seq, par); err != nil {
			t.Fatalf("%s: parallel build differs from sequential: %v", name, err)
		}
	}
}

func TestLandmarkOrderInvariance(t *testing.T) {
	// The scheme depends only on the landmark SET (Lemma 5.2).
	g := connected(graph.ErdosRenyi(200, 500, 33))
	lands := ByDegree(g, 10, 0)
	shuffled := make([]graph.V, len(lands))
	copy(shuffled, lands)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	a := MustBuild(g, Options{Landmarks: lands})
	bIx := MustBuild(g, Options{Landmarks: shuffled})
	sa := NewSearcher(a)
	sb := NewSearcher(bIx)
	for _, p := range samplePairs(g, 80, 99) {
		ga, gb := sa.Query(p[0], p[1]), sb.Query(p[0], p[1])
		if !ga.Equal(gb) {
			t.Fatalf("SPG(%d,%d) differs between landmark orders", p[0], p[1])
		}
	}
}

// TestDeltaEdgesAreLandmarkShortestPaths holds every Δ(a→b) to the
// oracle SPG between a and b on the graph minus the other landmarks, on
// fixtures placed at the corners of Δ recovery's candidate filter: a
// vertex count that is not a multiple of eight, per-landmark σ bounds on
// either side of 127 (sigmas lists the meta-edge weights, which is what
// puts the fixture there) and a digraph. Every vertex lies within 253
// hops of every landmark, the deepest distance a label holds.
func TestDeltaEdgesAreLandmarkShortestPaths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tg     testGraph
		opts   Options
		sigmas []int32 // meta-edge weights in edge order, when pinned
	}{
		{"er120", undirected(connected(graph.ErdosRenyi(120, 260, 41))), Options{NumLandmarks: 6}, nil},
		{"path123", undirected(graph.Path(123)), Options{Landmarks: []graph.V{3, 60, 122}}, []int32{57, 62}},
		{"path254", undirected(graph.Path(254)), Options{Landmarks: []graph.V{0, 125, 253}}, []int32{125, 128}},
		{"cycle505", undirected(graph.Cycle(505)), Options{Landmarks: []graph.V{0, 128, 300}}, []int32{128, 205, 172}},
		{"der3001", directed(graph.DirectedErdosRenyi(3001, 6000, 9)), Options{NumLandmarks: 12}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := tc.tg.mustBuild(t, tc.opts)
			metas := ix.MetaEdges()
			if tc.sigmas != nil {
				var got []int32
				for _, me := range metas {
					got = append(got, me[2])
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.sigmas) {
					t.Fatalf("meta-edge weights %v, want %v", got, tc.sigmas)
				}
			}
			for k, me := range metas {
				a, b := ix.Landmarks()[me[0]], ix.Landmarks()[me[1]]
				keep := func(v graph.V) bool { return v == a || v == b || !ix.IsLandmark(v) }
				var want, got *graph.SPG
				if g := tc.tg.dir; g != nil {
					sub := graph.NewDirectedBuilder(g.NumVertices())
					for _, arc := range g.Arcs() {
						if keep(arc.From) && keep(arc.To) {
							sub.AddEdge(arc.From, arc.To)
						}
					}
					want, got = bfs.OracleDiSPG(sub.MustBuild(), a, b), graph.NewDiSPG(a, b)
				} else {
					want, got = bfs.OracleSPG(tc.tg.und.InducedSubgraph(keep), a, b), graph.NewSPG(a, b)
				}
				if want.Dist != me[2] {
					t.Fatalf("meta edge %d→%d: avoidance dist %d != σ %d", a, b, want.Dist, me[2])
				}
				got.Dist = want.Dist
				for _, e := range ix.Delta(k) {
					got.AddEdge(e.U, e.W)
				}
				if len(ix.Delta(k)) != want.NumEdges() || !got.Equal(want) {
					t.Fatalf("Δ(%d→%d): %d edges %v, want %d: %v", a, b, len(ix.Delta(k)), got, want.NumEdges(), want)
				}
			}
		})
	}
}

func TestCoverageClassification(t *testing.T) {
	// On a star graph with the centre as the only landmark, every
	// non-adjacent pair's shortest paths all pass through the landmark.
	g := graph.Star(12)
	ix := MustBuild(g, Options{NumLandmarks: 1})
	sr := NewSearcher(ix)
	_, st := sr.QueryWithStats(1, 2)
	if st.Coverage != CoverageAll {
		t.Fatalf("star spoke pair: coverage = %v, want CoverageAll", st.Coverage)
	}
	// On a cycle with one landmark, the pair "across" the landmark has
	// one path through it and one around: CoverageSome or CoverageNone
	// depending on parity; check a pair adjacent around the far side has
	// no landmark path of equal length.
	c := graph.Cycle(8)
	ixc := MustBuild(c, Options{Landmarks: []graph.V{0}})
	src := NewSearcher(ixc)
	_, st = src.QueryWithStats(3, 5)
	if st.Coverage != CoverageNone {
		t.Fatalf("cycle far pair: coverage = %v, want CoverageNone", st.Coverage)
	}
	_, st = src.QueryWithStats(7, 1) // both adjacent to landmark 0: path 7-0-1 and no shorter
	if st.Dist != 2 || st.Coverage != CoverageAll {
		t.Fatalf("cycle near pair: dist=%d coverage=%v, want 2/CoverageAll", st.Dist, st.Coverage)
	}
}

func TestDisconnectedPairs(t *testing.T) {
	g := testGraphs(t)["disconnected"]
	ix := MustBuild(g, Options{NumLandmarks: 3})
	sr := NewSearcher(ix)
	spg, st := sr.QueryWithStats(0, 9)
	if st.Dist != graph.InfDist || spg.NumEdges() != 0 {
		t.Fatalf("disconnected pair: dist=%d edges=%d", st.Dist, spg.NumEdges())
	}
	if spg.Dist != graph.InfDist {
		t.Fatal("SPG dist must be InfDist")
	}
}

// TestDiameterOverflow pins the failure behaviour of the engine and of
// the scalar reference on both kinds: a labelling distance past 254 hops
// is rejected, not truncated.
func TestDiameterOverflow(t *testing.T) {
	dipath := graph.NewDirectedBuilder(300)
	for i := 0; i < 299; i++ {
		dipath.AddEdge(graph.V(i), graph.V(i+1))
	}
	for name, tg := range map[string]testGraph{
		"path300":   undirected(graph.Path(300)),
		"dipath300": directed(dipath.MustBuild()),
	} {
		if _, err := tg.build(Options{Landmarks: []graph.V{0}}); err != ErrDiameterTooLarge {
			t.Fatalf("%s: engine: err = %v, want ErrDiameterTooLarge", name, err)
		}
		if _, ok := scalarReference(t, tg, []graph.V{0}); ok {
			t.Fatalf("%s: scalar reference accepted a 299-hop label", name)
		}
	}
}

func TestQuickRandomGraphsPropertyBased(t *testing.T) {
	// Property: for any random graph of either kind and any pair, QbS
	// equals the oracle.
	check := func(seed int64, nRaw, mRaw, kRaw uint8, isDirected bool) bool {
		n := 10 + int(nRaw)%80
		k := 1 + int(kRaw)%10
		var tg testGraph
		if isDirected {
			tg = directed(graph.DirectedErdosRenyi(n, n+int(mRaw)%(4*n), seed))
		} else {
			tg = undirected(connected(graph.ErdosRenyi(n, n+int(mRaw)%(3*n), seed)))
		}
		n = tg.numVertices()
		ix, err := tg.build(Options{NumLandmarks: min(k, n)})
		if err != nil {
			return false
		}
		sr := NewSearcher(ix)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 12; i++ {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			if !sr.Query(u, v).Equal(tg.oracle(u, v)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSearcherReuseAcrossQueries(t *testing.T) {
	// A single searcher must produce correct answers across many mixed
	// queries (workspace epoch reuse).
	g := connected(graph.BarabasiAlbert(300, 3, 77))
	ix := MustBuild(g, Options{NumLandmarks: 10})
	sr := NewSearcher(ix)
	for _, p := range samplePairs(g, 300, 123) {
		got := sr.Query(p[0], p[1])
		want := bfs.OracleSPG(g, p[0], p[1])
		if !got.Equal(want) {
			t.Fatalf("SPG(%d,%d) mismatch on reused searcher", p[0], p[1])
		}
	}
}

// TestDistanceMethod covers the extraction-free entry point against the
// oracle distance, interleaved with extracting queries into one reused
// result on the same searcher.
func TestDistanceMethod(t *testing.T) {
	for name, tg := range map[string]testGraph{
		"er200":  undirected(connected(graph.ErdosRenyi(200, 420, 55))),
		"dsf300": directed(graph.DirectedScaleFree(300, 3, 31)),
	} {
		ix := tg.mustBuild(t, Options{NumLandmarks: 8})
		sr := NewSearcher(ix)
		for _, p := range somePairs(tg.numVertices(), 200, 7) {
			var want int32
			if tg.dir != nil {
				want = bfs.OracleDiSPG(tg.dir, p[0], p[1]).Dist
			} else {
				want = bfs.OracleSPG(tg.und, p[0], p[1]).Dist
			}
			if got := sr.Distance(p[0], p[1]); got != want {
				t.Fatalf("%s: Distance(%d,%d)=%d want %d", name, p[0], p[1], got, want)
			}
			tg.check(t, sr, p[0], p[1])
		}
	}
}

// TestSearcherFootprint pins what a searcher costs per vertex on either
// kind of index: two depth arrays (4 B each), four visited/settled
// bitmaps and two mark sets with their touched logs — about 9 B. At 32 B
// (a stamp and a depth per vertex, four times over) the search stalled
// on its own scratch state, so the number is held at 10.
func TestSearcherFootprint(t *testing.T) {
	const n = 100_000
	for name, tg := range map[string]testGraph{
		"undirected": undirected(graph.ErdosRenyi(n, 3*n, 1)),
		"directed":   directed(graph.DirectedErdosRenyi(n, 3*n, 1)),
	} {
		ix := tg.mustBuild(t, Options{NumLandmarks: 4})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sr := NewSearcher(ix)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sr)
		perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: NewSearcher: %.2f B/vertex", name, perVertex)
		if perVertex > 10 {
			t.Fatalf("%s: NewSearcher allocates %.2f B/vertex, want at most 10", name, perVertex)
		}
	}
}

// TestConcurrentSearchersOnLargeAdjacency runs eight searchers of one
// index at once through Reader.QueryBatch, over an adjacency large enough
// that every one of them requests rows a block ahead (traverse.RowsAhead;
// 1<<17 arcs is where it starts) and sweeps its large levels twice. The
// answers must be the ones a single searcher gives, and under -race the
// run must be clean: whatever those loads are folded into belongs to the
// searcher, not to the package.
func TestConcurrentSearchersOnLargeAdjacency(t *testing.T) {
	spec, err := datasets.ByKey("FR")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(0.05)
	if g.NumArcs() < 1<<17 {
		t.Fatalf("%d arcs: too few for rows to be requested ahead", g.NumArcs())
	}
	ix := MustBuild(g, Options{})
	pairs := randomPairs(g.NumVertices(), 2000, 22)
	want := make([]*graph.SPG, len(pairs))
	sr := NewSearcher(ix)
	for i, p := range pairs {
		want[i] = sr.Query(p[0], p[1])
	}
	batch := make([]Pair, len(pairs))
	for i, p := range pairs {
		batch[i] = Pair{p[0], p[1]}
	}
	got := NewReader(func() *Index { return ix }).QueryBatch(batch, 8)
	for i, p := range pairs {
		if got[i] == nil || !got[i].Equal(want[i]) {
			t.Fatalf("SPG(%d,%d) answered concurrently: %v, alone: %v", p[0], p[1], got[i], want[i])
		}
	}
}

// TestDedupGenerationWraps: recover emits each meta-edge's Δ arcs once
// per query by stamping the meta-edge with a per-query generation, a
// uint32 that a pooled searcher under steady load does wrap. Wrapped
// unhandled, generation 0 matches every stamp a fresh searcher holds and
// generations 1, 2, … match the stamps its first queries left, and the
// answers come back missing Δ arcs with no error. Both are played out
// for 400 pairs against the oracle: the wrap as a fresh searcher's next
// generation, and a warm searcher asked pair b (stamps: 1), wrapping
// under pair a (generation 0) and asked b again (generation 1).
func TestDedupGenerationWraps(t *testing.T) {
	g := connected(graph.BarabasiAlbert(3000, 3, 5))
	ix := MustBuild(g, Options{})
	pairs := samplePairs(g, 400, 31)
	want := make([]*graph.SPG, len(pairs))
	sr := NewSearcher(ix)
	twoLandmarks := 0
	for i, p := range pairs {
		want[i] = bfs.OracleSPG(g, p[0], p[1])
		if _, st := sr.QueryWithStats(p[0], p[1]); st.UsedRecover && len(sr.metaKept) > 0 {
			twoLandmarks++
		}
	}
	if twoLandmarks < len(pairs)/4 {
		t.Fatalf("only %d of %d answers contain Δ arcs: the test would not see them dropped", twoLandmarks, len(pairs))
	}
	fresh := func() { // the stamps and generation NewSearcher leaves
		clear(sr.metaGen)
		sr.metaCur = 0
	}
	hold := func(when string, i int) {
		t.Helper()
		if got := sr.Query(pairs[i][0], pairs[i][1]); !got.Equal(want[i]) {
			t.Fatalf("%s: SPG(%d,%d) = %v, want %v", when, pairs[i][0], pairs[i][1], got, want[i])
		}
	}
	for i := range pairs {
		fresh()
		sr.metaCur = math.MaxUint32
		hold("fresh searcher, first generation after the wrap", i)
	}
	for i := 1; i < len(pairs); i++ {
		fresh()
		hold("warm-up", i)
		sr.metaCur = math.MaxUint32
		hold("warm searcher, first generation after the wrap", i-1)
		hold("warm searcher, second generation after the wrap", i)
	}
}
