package dcore

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

func testDigraphs() map[string]*graph.DiGraph {
	return map[string]*graph.DiGraph{
		"dipath": graph.MustDiFromArcs(6, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
		}),
		"dicycle": graph.MustDiFromArcs(7, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
			{From: 4, To: 5}, {From: 5, To: 6}, {From: 6, To: 0},
		}),
		"diamond": graph.MustDiFromArcs(5, []graph.Arc{
			{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3},
			{From: 3, To: 4}, {From: 4, To: 0}, // back arc
		}),
		"asym": graph.MustDiFromArcs(4, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 0, To: 3}, {From: 3, To: 2},
		}),
		"der300":  graph.DirectedErdosRenyi(300, 1200, 3),
		"der150":  graph.DirectedErdosRenyi(150, 450, 4),
		"dsf200":  graph.DirectedScaleFree(200, 2, 5),
		"dsf300":  graph.DirectedScaleFree(300, 3, 6),
		"undirBA": graph.AsDirected(largestComponent(graph.BarabasiAlbert(200, 3, 7))),
	}
}

func largestComponent(g *graph.Graph) *graph.Graph {
	lc, _ := g.LargestComponent()
	return lc
}

func checkDiQueries(t *testing.T, g *graph.DiGraph, ix *Index, pairs [][2]graph.V) {
	t.Helper()
	sr := NewSearcher(ix)
	for _, p := range pairs {
		u, v := p[0], p[1]
		got := sr.Query(u, v)
		want := bfs.OracleDiSPG(g, u, v)
		if !got.Equal(want) {
			t.Fatalf("DiSPG(%d,%d): got %v\nwant %v (landmarks %v)", u, v, got, want, ix.Landmarks())
		}
		if err := got.Verify(g, bfs.DiDistancesFrom(g, u), bfs.DiDistancesTo(g, v)); err != nil {
			t.Fatalf("DiSPG(%d,%d): %v", u, v, err)
		}
	}
}

func TestDirectedQueryMatchesOracle(t *testing.T) {
	for name, g := range testDigraphs() {
		for _, k := range []int{1, 3, 8, 20} {
			if k > g.NumVertices() {
				continue
			}
			t.Run(fmt.Sprintf("%s/R=%d", name, k), func(t *testing.T) {
				ix := MustBuild(g, Options{NumLandmarks: k})
				var pairs [][2]graph.V
				n := g.NumVertices()
				if n <= 10 {
					for u := 0; u < n; u++ {
						for v := 0; v < n; v++ {
							pairs = append(pairs, [2]graph.V{graph.V(u), graph.V(v)})
						}
					}
				} else {
					rng := rand.New(rand.NewSource(int64(k)))
					for i := 0; i < 120; i++ {
						pairs = append(pairs, [2]graph.V{graph.V(rng.Intn(n)), graph.V(rng.Intn(n))})
					}
				}
				checkDiQueries(t, g, ix, pairs)
			})
		}
	}
}

func TestDirectedLandmarkEndpoints(t *testing.T) {
	g := graph.DirectedScaleFree(150, 2, 9)
	ix := MustBuild(g, Options{NumLandmarks: 6})
	rng := rand.New(rand.NewSource(2))
	var pairs [][2]graph.V
	for _, r := range ix.Landmarks() {
		pairs = append(pairs,
			[2]graph.V{r, graph.V(rng.Intn(g.NumVertices()))},
			[2]graph.V{graph.V(rng.Intn(g.NumVertices())), r},
			[2]graph.V{r, ix.Landmarks()[rng.Intn(len(ix.Landmarks()))]},
		)
	}
	checkDiQueries(t, g, ix, pairs)
}

func TestDirectedAsymmetry(t *testing.T) {
	// d(u,v) may differ from d(v,u); both directions must be exact.
	g := testDigraphs()["asym"]
	ix := MustBuild(g, Options{NumLandmarks: 2})
	sr := NewSearcher(ix)
	ab := sr.Query(1, 3)
	ba := sr.Query(3, 1)
	wantAB := bfs.OracleDiSPG(g, 1, 3)
	wantBA := bfs.OracleDiSPG(g, 3, 1)
	if !ab.Equal(wantAB) || !ba.Equal(wantBA) {
		t.Fatalf("asymmetric answers wrong: %v / %v", ab, ba)
	}
	if ab.Dist == ba.Dist {
		t.Log("note: this fixture happens to be symmetric for the pair; acceptable")
	}
}

func TestDirectedMatchesUndirectedOnSymmetricGraphs(t *testing.T) {
	// On a symmetrised graph, the directed SPG's arc set must be exactly
	// the undirected SPG's edges in both orientations along the DAG.
	ug := largestComponent(graph.BarabasiAlbert(150, 3, 11))
	dg := graph.AsDirected(ug)
	ix := MustBuild(dg, Options{NumLandmarks: 8})
	sr := NewSearcher(ix)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		u := graph.V(rng.Intn(ug.NumVertices()))
		v := graph.V(rng.Intn(ug.NumVertices()))
		di := sr.Query(u, v)
		un := bfs.OracleSPG(ug, u, v)
		if di.Dist != un.Dist {
			t.Fatalf("distance mismatch for (%d,%d): %d vs %d", u, v, di.Dist, un.Dist)
		}
		if di.Dist == graph.InfDist || u == v {
			continue
		}
		// Each undirected SPG edge appears exactly once as a directed arc
		// oriented away from u.
		if di.NumArcs() != un.NumEdges() {
			t.Fatalf("(%d,%d): %d arcs vs %d edges", u, v, di.NumArcs(), un.NumEdges())
		}
		for _, a := range di.Arcs() {
			if !ug.HasEdge(a.From, a.To) {
				t.Fatalf("(%d,%d): arc %v not an undirected edge", u, v, a)
			}
		}
	}
}

func TestDirectedDisconnectedAndTrivial(t *testing.T) {
	g := graph.MustDiFromArcs(4, []graph.Arc{{From: 0, To: 1}, {From: 2, To: 3}})
	ix := MustBuild(g, Options{NumLandmarks: 2})
	sr := NewSearcher(ix)
	if s := sr.Query(0, 3); s.Dist != graph.InfDist || s.NumArcs() != 0 {
		t.Fatalf("disconnected: %v", s)
	}
	if s := sr.Query(1, 0); s.Dist != graph.InfDist {
		t.Fatalf("one-way arc reversed must be unreachable: %v", s)
	}
	if s := sr.Query(2, 2); s.Dist != 0 || s.NumArcs() != 0 {
		t.Fatalf("trivial: %v", s)
	}
}

func TestDirectedLabelDefinitions(t *testing.T) {
	// labelFrom[v][r] = d(r→v) iff some shortest r→v path avoids other
	// landmarks; symmetric for labelTo with v→r.
	g := graph.DirectedScaleFree(120, 2, 17)
	ix := MustBuild(g, Options{NumLandmarks: 5})
	R := ix.numLand
	for i, r := range ix.Landmarks() {
		from := bfs.DiDistancesFrom(g, r)
		to := bfs.DiDistancesTo(g, r)
		avoidFrom := avoidanceDistances(g, ix, r, true)
		avoidTo := avoidanceDistances(g, ix, r, false)
		for v := 0; v < g.NumVertices(); v++ {
			if ix.IsLandmark(graph.V(v)) {
				continue
			}
			gotF := ix.labelFrom[v*R+i]
			wantF := from[v] != bfs.Infinity && avoidFrom[v] == from[v]
			if (gotF != NoEntry) != wantF {
				t.Fatalf("labelFrom[%d][%d]: present=%v want %v", v, r, gotF != NoEntry, wantF)
			}
			if gotF != NoEntry && int32(gotF) != from[v] {
				t.Fatalf("labelFrom[%d][%d] = %d want %d", v, r, gotF, from[v])
			}
			gotT := ix.labelTo[v*R+i]
			wantT := to[v] != bfs.Infinity && avoidTo[v] == to[v]
			if (gotT != NoEntry) != wantT {
				t.Fatalf("labelTo[%d][%d]: present=%v want %v", v, r, gotT != NoEntry, wantT)
			}
			if gotT != NoEntry && int32(gotT) != to[v] {
				t.Fatalf("labelTo[%d][%d] = %d want %d", v, r, gotT, to[v])
			}
		}
	}
}

// avoidanceDistances computes directed distances from/to r in the graph
// with other landmarks removed.
func avoidanceDistances(g *graph.DiGraph, ix *Index, r graph.V, forward bool) []int32 {
	b := graph.NewDiBuilder(g.NumVertices())
	for u := graph.V(0); u < graph.V(g.NumVertices()); u++ {
		if ix.IsLandmark(u) && u != r {
			continue
		}
		for _, w := range g.Out(u) {
			if ix.IsLandmark(w) && w != r {
				continue
			}
			b.AddArc(u, w)
		}
	}
	sub := b.MustBuild()
	if forward {
		return bfs.DiDistancesFrom(sub, r)
	}
	return bfs.DiDistancesTo(sub, r)
}

func TestDirectedParallelDeterminism(t *testing.T) {
	g := graph.DirectedScaleFree(300, 3, 19)
	seq := MustBuild(g, Options{NumLandmarks: 12, Parallelism: 1})
	par := MustBuild(g, Options{NumLandmarks: 12, Parallelism: 8})
	for i := range seq.labelFrom {
		if seq.labelFrom[i] != par.labelFrom[i] || seq.labelTo[i] != par.labelTo[i] {
			t.Fatal("parallel directed labelling differs from sequential")
		}
	}
}

func TestDirectedQuickProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw, kRaw uint8) bool {
		n := 8 + int(nRaw)%60
		m := n + int(mRaw)%(4*n)
		k := 1 + int(kRaw)%8
		g := graph.DirectedErdosRenyi(n, m, seed)
		if k > n {
			k = n
		}
		ix, err := Build(g, Options{NumLandmarks: k})
		if err != nil {
			return false
		}
		sr := NewSearcher(ix)
		rng := rand.New(rand.NewSource(seed ^ 0xd1))
		for i := 0; i < 10; i++ {
			u := graph.V(rng.Intn(n))
			v := graph.V(rng.Intn(n))
			if !sr.Query(u, v).Equal(bfs.OracleDiSPG(g, u, v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiBidirectionalMatchesOracle(t *testing.T) {
	for name, g := range testDigraphs() {
		b := bfs.NewDiBidirectional(g)
		rng := rand.New(rand.NewSource(23))
		n := g.NumVertices()
		for i := 0; i < 80; i++ {
			u := graph.V(rng.Intn(n))
			v := graph.V(rng.Intn(n))
			got, _ := b.Query(u, v)
			want := bfs.OracleDiSPG(g, u, v)
			if !got.Equal(want) {
				t.Fatalf("%s: DiBiBFS(%d,%d) = %v, want %v", name, u, v, got, want)
			}
		}
	}
}

// TestEngineMatchesScalarReference pins the bit-parallel labelling
// bit-identical to the scalar per-landmark reference: both label
// matrices, σ, the canonical meta-arc list and every Δ list must agree
// byte for byte, across graph shapes and landmark counts — including
// multi-batch builds beyond the 64-way sweep width.
func TestEngineMatchesScalarReference(t *testing.T) {
	graphs := testDigraphs()
	graphs["der400"] = graph.DirectedErdosRenyi(400, 2400, 29)
	for name, g := range graphs {
		for _, k := range []int{1, 3, 20, 80, 130} {
			if k > g.NumVertices() {
				continue
			}
			t.Run(fmt.Sprintf("%s/R=%d", name, k), func(t *testing.T) {
				eng := MustBuild(g, Options{NumLandmarks: k})
				ref := MustBuild(g, Options{NumLandmarks: k, Scalar: true})
				for i := range eng.labelFrom {
					if eng.labelFrom[i] != ref.labelFrom[i] {
						t.Fatalf("labelFrom diverges at %d: engine %d, scalar %d", i, eng.labelFrom[i], ref.labelFrom[i])
					}
					if eng.labelTo[i] != ref.labelTo[i] {
						t.Fatalf("labelTo diverges at %d: engine %d, scalar %d", i, eng.labelTo[i], ref.labelTo[i])
					}
				}
				for i := range eng.sigma {
					if eng.sigma[i] != ref.sigma[i] {
						t.Fatalf("sigma diverges at %d: engine %d, scalar %d", i, eng.sigma[i], ref.sigma[i])
					}
					if eng.metaID[i] != ref.metaID[i] {
						t.Fatalf("metaID diverges at %d", i)
					}
				}
				if len(eng.meta) != len(ref.meta) {
					t.Fatalf("meta arcs: engine %d, scalar %d", len(eng.meta), len(ref.meta))
				}
				for k := range eng.meta {
					if eng.meta[k] != ref.meta[k] {
						t.Fatalf("meta[%d]: engine %+v, scalar %+v", k, eng.meta[k], ref.meta[k])
					}
					if len(eng.delta[k]) != len(ref.delta[k]) {
						t.Fatalf("delta[%d]: engine %d arcs, scalar %d", k, len(eng.delta[k]), len(ref.delta[k]))
					}
					for i := range eng.delta[k] {
						if eng.delta[k][i] != ref.delta[k][i] {
							t.Fatalf("delta[%d][%d] diverges", k, i)
						}
					}
				}
				if eng.build.LabelEntries != ref.build.LabelEntries {
					t.Fatalf("label entries: engine %d, scalar %d", eng.build.LabelEntries, ref.build.LabelEntries)
				}
			})
		}
	}
}

// TestEngineDepthOverflowMatchesScalar pins the two paths' failure
// behaviour: both must reject a >254-hop labelling distance.
func TestEngineDepthOverflowMatchesScalar(t *testing.T) {
	b := graph.NewDiBuilder(300)
	for i := 0; i < 299; i++ {
		b.AddArc(graph.V(i), graph.V(i+1))
	}
	g := b.MustBuild()
	if _, err := Build(g, Options{Landmarks: []graph.V{0}}); err != ErrDiameterTooLarge {
		t.Fatalf("engine: err = %v, want ErrDiameterTooLarge", err)
	}
	if _, err := Build(g, Options{Landmarks: []graph.V{0}, Scalar: true}); err != ErrDiameterTooLarge {
		t.Fatalf("scalar: err = %v, want ErrDiameterTooLarge", err)
	}
}

// TestDirectedQueryIntoAndDistance covers the reusable-result entry
// points against the oracle and the extracting query.
func TestDirectedQueryIntoAndDistance(t *testing.T) {
	g := graph.DirectedScaleFree(300, 3, 31)
	ix := MustBuild(g, Options{NumLandmarks: 12})
	sr := NewSearcher(ix)
	spg := graph.NewDiSPG(0, 0)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 150; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		want := bfs.OracleDiSPG(g, u, v)
		sr.QueryInto(spg, u, v)
		if !spg.Equal(want) {
			t.Fatalf("QueryInto(%d,%d) != oracle", u, v)
		}
		if d := sr.Distance(u, v); d != want.Dist {
			t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, d, want.Dist)
		}
	}
}

// TestDirectedRestoreRoundTrip pins Persistent/Restore: an index
// reassembled from its own frozen state answers bit-identically.
func TestDirectedRestoreRoundTrip(t *testing.T) {
	g := graph.DirectedScaleFree(250, 3, 43)
	ix := MustBuild(g, Options{NumLandmarks: 10})
	ps := ix.Persistent()
	re, err := Restore(ps.Graph, ps.Landmarks, ps.LabelFrom, ps.LabelTo, ps.Sigma, ps.Delta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ix.distM {
		if ix.distM[i] != re.distM[i] {
			t.Fatalf("restored APSP diverges at %d", i)
		}
	}
	sa, sb := NewSearcher(ix), NewSearcher(re)
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 100; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if !sa.Query(u, v).Equal(sb.Query(u, v)) {
			t.Fatalf("restored index answers (%d,%d) differently", u, v)
		}
	}
}

// TestDirectedEngineBuildSpeedup is the PR 4 acceptance criterion: the
// bit-parallel labelling must construct at least 2× faster than the
// scalar reference on the bench graph. Skipped under the race detector
// and -short (instrumented timings are not representative).
func TestDirectedEngineBuildSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabledDcore {
		t.Skip("timing test under race instrumentation")
	}
	g := graph.DirectedScaleFree(30000, 6, 53)
	landmarks := g.TotalDegreeOrder()[:32]
	best := func(scalar bool) time.Duration {
		b := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			ix := MustBuild(g, Options{Landmarks: landmarks, Scalar: scalar, Parallelism: 1})
			if d := ix.Stats().LabellingTime; d < b {
				b = d
			}
		}
		return b
	}
	engine, scalar := best(false), best(true)
	if ratio := float64(scalar) / float64(engine); ratio < 2 {
		t.Fatalf("bit-parallel labelling only %.2fx faster than scalar (engine %s, scalar %s), want >= 2x",
			ratio, engine, scalar)
	}
}

// TestSearcherFootprint is core's test of the same name for the
// directed searcher: about 9 B per vertex, at most 10.
func TestSearcherFootprint(t *testing.T) {
	const n = 100_000
	ix := MustBuild(graph.DirectedErdosRenyi(n, 3*n, 1), Options{NumLandmarks: 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr := NewSearcher(ix)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sr)
	perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("NewSearcher: %.2f B/vertex", perVertex)
	if perVertex > 10 {
		t.Fatalf("NewSearcher allocates %.2f B/vertex, want at most 10", perVertex)
	}
}
