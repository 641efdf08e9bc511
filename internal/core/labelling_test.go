package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Tests for the labelling phase (Algorithm 2) and index construction
// plumbing.

func TestBuildRejectsBadLandmarks(t *testing.T) {
	g := graph.Path(5)
	if _, err := Build(g, Options{Landmarks: []graph.V{99}}); err == nil {
		t.Fatal("out-of-range landmark accepted")
	}
	if _, err := Build(g, Options{Landmarks: []graph.V{-1}}); err == nil {
		t.Fatal("negative landmark accepted")
	}
	if _, err := Build(g, Options{Landmarks: []graph.V{1, 1}}); err == nil {
		t.Fatal("duplicate landmark accepted")
	}
}

func TestBuildCapsLandmarksAtVertexCount(t *testing.T) {
	g := graph.Path(5)
	ix := MustBuild(g, Options{NumLandmarks: 50})
	if ix.NumLandmarks() != 5 {
		t.Fatalf("landmarks = %d, want 5", ix.NumLandmarks())
	}
}

func TestLandmarksHaveNoLabels(t *testing.T) {
	g := connected(graph.ErdosRenyi(100, 250, 3))
	ix := MustBuild(g, Options{NumLandmarks: 10})
	for _, r := range ix.Landmarks() {
		ranks, _ := ix.Label(r)
		if len(ranks) != 0 {
			t.Fatalf("landmark %d has %d label entries", r, len(ranks))
		}
	}
}

func TestLabelDistancesAreExact(t *testing.T) {
	g := connected(graph.BarabasiAlbert(200, 3, 5))
	ix := MustBuild(g, Options{NumLandmarks: 8})
	for i, r := range ix.Landmarks() {
		dist := bfs.Distances(g, r)
		for v := 0; v < g.NumVertices(); v++ {
			if d, ok := ix.LabelEntry(graph.V(v), i); ok && d != dist[v] {
				t.Fatalf("label (%d → %d) = %d, true distance %d", v, r, d, dist[v])
			}
		}
	}
}

func TestMetaEdgeWeightsSymmetricAndExact(t *testing.T) {
	g := connected(graph.WattsStrogatz(150, 4, 0.2, 9))
	ix := MustBuild(g, Options{NumLandmarks: 10})
	k := ix.NumLandmarks()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			wij, okij := ix.MetaEdgeWeight(i, j)
			wji, okji := ix.MetaEdgeWeight(j, i)
			if okij != okji || (okij && wij != wji) {
				t.Fatalf("meta edge (%d,%d) asymmetric", i, j)
			}
			if okij {
				want := bfs.Distances(g, ix.Landmarks()[i])[ix.Landmarks()[j]]
				if wij != want {
					t.Fatalf("σ(%d,%d)=%d want %d", i, j, wij, want)
				}
			}
		}
	}
}

func TestLabelEntriesBoundedByLandmarks(t *testing.T) {
	// Each vertex stores at most |R| entries by construction; the stats
	// counter must agree with a direct scan.
	g := connected(graph.ErdosRenyi(120, 300, 11))
	ix := MustBuild(g, Options{NumLandmarks: 6})
	var count int64
	for v := 0; v < g.NumVertices(); v++ {
		ranks, _ := ix.Label(graph.V(v))
		if len(ranks) > 6 {
			t.Fatalf("vertex %d has %d entries", v, len(ranks))
		}
		count += int64(len(ranks))
	}
	if count != ix.Stats().LabelEntries {
		t.Fatalf("entry count %d != stats %d", count, ix.Stats().LabelEntries)
	}
}

func TestParallelismMoreWorkersThanLandmarks(t *testing.T) {
	g := connected(graph.ErdosRenyi(100, 240, 15))
	ix := MustBuild(g, Options{NumLandmarks: 3, Parallelism: 16})
	seq := MustBuild(g, Options{NumLandmarks: 3, Parallelism: 1})
	if err := sameIndex(ix, seq); err != nil {
		t.Fatalf("worker oversubscription changed the index: %v", err)
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	ix := MustBuild(g, Options{NumLandmarks: 1})
	sr := NewSearcher(ix)
	spg := sr.Query(0, 0)
	if spg.Dist != 0 || spg.NumEdges() != 0 {
		t.Fatal("trivial single-vertex query")
	}
}

func TestTwoVertexGraph(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, W: 1}})
	for k := 1; k <= 2; k++ {
		ix := MustBuild(g, Options{NumLandmarks: k})
		sr := NewSearcher(ix)
		spg := sr.Query(0, 1)
		if spg.Dist != 1 || spg.NumEdges() != 1 {
			t.Fatalf("k=%d: dist=%d edges=%d", k, spg.Dist, spg.NumEdges())
		}
	}
}

func TestIsolatedVertices(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild() // 3, 4, 5 isolated
	ix := MustBuild(g, Options{NumLandmarks: 2})
	sr := NewSearcher(ix)
	if spg := sr.Query(0, 4); spg.Dist != graph.InfDist || spg.NumEdges() != 0 {
		t.Fatal("isolated vertex query must be empty")
	}
	if spg := sr.Query(3, 5); spg.Dist != graph.InfDist {
		t.Fatal("two isolated vertices must be disconnected")
	}
}

func TestLandmarkStrategies(t *testing.T) {
	g := connected(graph.BarabasiAlbert(300, 3, 21))
	for name, s := range map[string]LandmarkStrategy{
		"degree": ByDegree, "random": Random, "coverage": ByCoverage, "betweenness": ByApproxBetweenness,
	} {
		lands := s(g, 12, 7)
		if len(lands) != 12 {
			t.Fatalf("%s: %d landmarks", name, len(lands))
		}
		seen := map[graph.V]bool{}
		for _, r := range lands {
			if seen[r] {
				t.Fatalf("%s: duplicate landmark %d", name, r)
			}
			seen[r] = true
		}
		// Determinism for the given seed.
		again := s(g, 12, 7)
		for i := range lands {
			if lands[i] != again[i] {
				t.Fatalf("%s: non-deterministic", name)
			}
		}
	}
}

func TestByDegreePicksHubs(t *testing.T) {
	g := graph.Star(50)
	if lands := ByDegree(g, 1, 0); lands[0] != 0 {
		t.Fatalf("degree strategy missed the hub: %v", lands)
	}
}

func TestByCoverageSpreadsLandmarks(t *testing.T) {
	// Two separate stars: coverage must pick both centres before any
	// spoke; plain degree would too, but coverage must not pick two
	// vertices from the same star's centre region.
	b := graph.NewBuilder(22)
	for i := 1; i <= 10; i++ {
		b.AddEdge(0, graph.V(i))
	}
	for i := 12; i <= 21; i++ {
		b.AddEdge(11, graph.V(i))
	}
	b.AddEdge(10, 12) // weak bridge
	g := b.MustBuild()
	lands := ByCoverage(g, 2, 0)
	got := map[graph.V]bool{lands[0]: true, lands[1]: true}
	if !got[0] || !got[11] {
		t.Fatalf("coverage picked %v, want the two star centres", lands)
	}
}

// ---------------------------------------------------------------------
// Bit-parallel engine vs the scalar reference (retained landmarkBFS).

func randomTestGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	return b.MustBuild()
}

// randomLandmarks draws R distinct vertices.
func randomLandmarks(n, R int, seed int64) []graph.V {
	rng := rand.New(rand.NewSource(seed))
	seen := map[graph.V]bool{}
	var lms []graph.V
	for len(lms) < min(R, n) {
		if v := graph.V(rng.Intn(n)); !seen[v] {
			seen[v] = true
			lms = append(lms, v)
		}
	}
	return lms
}

// TestBitParallelLabellingMatchesScalar is the oracle property test for
// the traverse.MultiBFS build path: both labellings, σ, the meta APSP,
// the canonical meta-edge list, every Δ list and the entry count must be
// bit-identical to the scalar Algorithm 2 — on undirected and directed
// graphs, disconnected ones, and landmark sets spanning multiple 64-wide
// batches.
func TestBitParallelLabellingMatchesScalar(t *testing.T) {
	type row struct {
		tg   testGraph
		lms  []graph.V // nil = the default selection of R landmarks
		R    int
		pars []int
	}
	var rows []row
	for _, tc := range []struct {
		n, m, R int
		seed    int64
	}{
		{30, 15, 5, 1},     // disconnected
		{100, 300, 20, 2},  // paper-default |R|
		{150, 900, 64, 3},  // exactly one full batch
		{200, 1200, 70, 4}, // two batches
		{64, 80, 64, 5},    // every vertex nearly a landmark
	} {
		g := randomTestGraph(t, tc.n, tc.m, tc.seed)
		rows = append(rows, row{undirected(g), randomLandmarks(g.NumVertices(), tc.R, tc.seed*101), tc.R, []int{1, 3}})
	}
	digraphs := testDigraphs()
	digraphs["der400"] = graph.DirectedErdosRenyi(400, 2400, 29)
	for _, g := range digraphs {
		for _, R := range []int{1, 3, 20, 80, 130} {
			if R <= g.NumVertices() {
				rows = append(rows, row{directed(g), nil, R, []int{0}})
			}
		}
	}
	for _, r := range rows {
		for _, par := range r.pars {
			ix := r.tg.mustBuild(t, Options{Landmarks: r.lms, NumLandmarks: r.R, Parallelism: par})
			ref, ok := scalarReference(t, r.tg, ix.Landmarks())
			if !ok {
				t.Fatal("scalar labelling overflow")
			}
			if err := sameIndex(ix, ref); err != nil {
				t.Fatalf("n=%d directed=%v R=%d par=%d: engine vs scalar: %v",
					r.tg.numVertices(), r.tg.dir != nil, r.R, par, err)
			}
		}
	}
}

// TestEngineBuildSpeedup is the PR 4 acceptance criterion: the
// bit-parallel labelling must construct at least 2× faster than the
// scalar reference on the directed bench graph. Skipped under the race
// detector and -short (instrumented timings are not representative).
func TestEngineBuildSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test under race instrumentation")
	}
	g := graph.DirectedScaleFree(30000, 6, 53)
	landmarks := g.TotalDegreeOrder()[:32]
	best := func(label func() time.Duration) time.Duration {
		b := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			b = min(b, label())
		}
		return b
	}
	engine := best(func() time.Duration {
		ix, err := Build(g, Options{Landmarks: landmarks, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ix.Stats().LabellingTime
	})
	scalar := best(func() time.Duration {
		shell := bareIndex(t, nil, g.OutView(), g.InView(), landmarks)
		start := time.Now()
		shell.labelFrom = allocLabels(g.NumVertices(), len(landmarks))
		shell.labelTo = allocLabels(g.NumVertices(), len(landmarks))
		ws := newLabelWorkspace(g.NumVertices())
		for ri := range landmarks {
			shell.landmarkBFS(ri, shell.out, shell.labelFrom[ri], ws)
			shell.landmarkBFS(ri, shell.in, shell.labelTo[ri], ws)
		}
		return time.Since(start)
	})
	if ratio := float64(scalar) / float64(engine); ratio < 2 {
		t.Fatalf("bit-parallel labelling only %.2fx faster than scalar (engine %s, scalar %s), want >= 2x",
			ratio, engine, scalar)
	}
}

// TestMultiBFSWidthsMatchScalar holds the engine's settle payloads to the
// scalar QL/QN BFS of every source, at 1, 20 and 32 sources (uint32
// words) and 33 and 64 (uint64 words), on one worker and on four. A
// settle at (v, depth) must carry in newL the sources whose reference
// BFS labels v at that depth (for a landmark v, records the meta-edge to
// it), and in newN the rest of the sources that reach v at that depth.
// The graphs have more vertices than the pool floor and levels dense
// enough to run bottom-up, so four workers share those levels.
func TestMultiBFSWidthsMatchScalar(t *testing.T) {
	type payload struct{ l, n uint64 }
	type key struct {
		v     graph.V
		depth int32
	}
	und := randomTestGraph(t, 6000, 30000, 91)
	dir := graph.DirectedErdosRenyi(6000, 36000, 92)
	for _, tg := range []testGraph{undirected(und), directed(dir)} {
		n := tg.numVertices()
		push, pull := graph.Adjacency(tg.und), graph.Adjacency(tg.und)
		if tg.dir != nil {
			push, pull = tg.dir.OutView(), tg.dir.InView()
		}
		for _, k := range []int{1, 20, 32, 33, 64} {
			roots := randomLandmarks(n, k, int64(k))
			ref := bareIndex(t, nil, push, pull, roots)
			want := map[key]payload{}
			ws := newLabelWorkspace(n)
			col := make([]uint8, n)
			for i := range roots {
				for v := range col {
					col[v] = NoEntry
				}
				metas, ok := ref.landmarkBFS(i, push, col, ws)
				if !ok {
					t.Fatal("scalar labelling overflow")
				}
				viaL := map[graph.V]bool{}
				for _, e := range metas {
					viaL[roots[e.b]] = true
				}
				for _, v := range ws.visited[1:] {
					d := ws.depth[v]
					p := want[key{v, d}]
					if col[v] == uint8(d) || viaL[v] {
						p.l |= 1 << uint(i)
					} else {
						p.n |= 1 << uint(i)
					}
					want[key{v, d}] = p
				}
			}
			for _, par := range []int{1, 4} {
				got := map[key]payload{}
				var mu sync.Mutex
				eng := traverse.NewMultiBFS(n)
				eng.Parallelism = par
				err := eng.RunDirected(push, pull, nil, ref.landIdx, roots, MaxLabelDist, func(v graph.V, depth int32, newL, newN uint64) {
					mu.Lock()
					got[key{v, depth}] = payload{newL, newN}
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("directed=%v sources=%d par=%d: %d settles, want %d", tg.dir != nil, k, par, len(got), len(want))
				}
				for kv, p := range want {
					if got[kv] != p {
						t.Fatalf("directed=%v sources=%d par=%d: settle %v = %+v, want %+v", tg.dir != nil, k, par, kv, got[kv], p)
					}
				}
			}
		}
	}
}
