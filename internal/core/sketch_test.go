package core

import (
	"math/rand"
	"slices"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// Tests for the sketching phase (Algorithm 3) beyond the upper-bound
// property covered in search_test.go.

func TestSketchMinimizingPairsAreExact(t *testing.T) {
	// Every reported pair must achieve d⊤ exactly, and every achieving
	// label pair must be reported.
	g := connected(graph.BarabasiAlbert(200, 3, 71))
	ix := MustBuild(g, Options{NumLandmarks: 10})
	sr := NewSearcher(ix)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		sk := sr.Sketch(u, v)
		if sk.DTop == graph.InfDist {
			continue
		}
		seen := map[SketchPair]bool{}
		for _, p := range sk.Pairs {
			seen[p] = true
			du, okU := labelOrVirtual(ix, u, p.R)
			dv, okV := labelOrVirtual(ix, v, p.RPrime)
			if !okU || !okV {
				t.Fatalf("pair %v references missing labels", p)
			}
			if got := du + ix.MetaDist(p.R, p.RPrime) + dv; got != sk.DTop {
				t.Fatalf("pair %v gives %d, want d⊤=%d", p, got, sk.DTop)
			}
		}
		// Exhaustive: all achieving pairs reported.
		for ri := 0; ri < ix.NumLandmarks(); ri++ {
			du, okU := labelOrVirtual(ix, u, ri)
			if !okU {
				continue
			}
			for rj := 0; rj < ix.NumLandmarks(); rj++ {
				dv, okV := labelOrVirtual(ix, v, rj)
				if !okV {
					continue
				}
				dm := ix.MetaDist(ri, rj)
				if dm == graph.InfDist {
					continue
				}
				if du+dm+dv == sk.DTop && !seen[SketchPair{R: ri, RPrime: rj}] {
					t.Fatalf("achieving pair (%d,%d) missing from sketch", ri, rj)
				}
			}
		}
	}
}

func labelOrVirtual(ix *Index, t graph.V, rank int) (int32, bool) {
	if ix.IsLandmark(t) {
		if int(ix.landIdx[t]) == rank {
			return 0, true
		}
		return 0, false
	}
	return ix.LabelEntry(t, rank)
}

// referenceSketch is S_uv as the sketch was first computed here, beside
// the search rather than in it: d⊤ and the minimizing pairs recounted
// over the two entry lists, each side's sketch edges in the order the
// pairs first name them, and for each pair a scan of every meta-edge
// through onMetaShortestPath, deduplicated in pair order. It reads
// neither the searcher nor the shortest-meta-path table.
func referenceSketch(ix *Index, u, v graph.V) *Sketch {
	s := &Sketch{U: u, V: v, DTop: graph.InfDist}
	uEntries := ix.entryList(u, ix.labelTo, nil)
	vEntries := ix.entryList(v, ix.labelFrom, nil)
	piOf := func(eu, ev SketchEndpoint) int32 {
		dm := ix.ms.distM[eu.Rank*ix.numLand+ev.Rank]
		if dm == graph.InfDist {
			return graph.InfDist
		}
		return eu.Sigma + dm + ev.Sigma
	}
	for _, eu := range uEntries {
		for _, ev := range vEntries {
			s.DTop = min(s.DTop, piOf(eu, ev))
		}
	}
	if s.DTop == graph.InfDist {
		return s
	}
	uSeen := make([]bool, ix.numLand)
	vSeen := make([]bool, ix.numLand)
	metaSeen := make([]bool, len(ix.ms.meta))
	for _, eu := range uEntries {
		for _, ev := range vEntries {
			if piOf(eu, ev) != s.DTop {
				continue
			}
			s.Pairs = append(s.Pairs, SketchPair{R: eu.Rank, RPrime: ev.Rank})
			if !uSeen[eu.Rank] {
				uSeen[eu.Rank] = true
				s.USide = append(s.USide, eu)
			}
			if !vSeen[ev.Rank] {
				vSeen[ev.Rank] = true
				s.VSide = append(s.VSide, ev)
			}
			if eu.Rank == ev.Rank {
				continue
			}
			for k := range ix.ms.meta {
				if !metaSeen[k] && ix.ms.onMetaShortestPath(eu.Rank, ev.Rank, k) {
					metaSeen[k] = true
					s.MetaEdges = append(s.MetaEdges, k)
				}
			}
		}
	}
	return s
}

// sketchDiff names the first field in which two sketches differ, or
// returns "" when they are equal element for element.
func sketchDiff(got, want *Sketch) string {
	switch {
	case got.U != want.U || got.V != want.V:
		return "endpoints"
	case got.DTop != want.DTop:
		return "DTop"
	case !slices.Equal(got.Pairs, want.Pairs):
		return "Pairs"
	case !slices.Equal(got.USide, want.USide):
		return "USide"
	case !slices.Equal(got.VSide, want.VSide):
		return "VSide"
	case !slices.Equal(got.MetaEdges, want.MetaEdges):
		return "MetaEdges"
	}
	return ""
}

// TestSketchMetaEdgesLieOnShortestMetaPaths holds Searcher.Sketch to the
// reference element for element, in order, on both graph kinds: once
// with the meta state's shortest-meta-path table and once without it,
// the on-the-fly scan a capped table falls back to.
func TestSketchMetaEdgesLieOnShortestMetaPaths(t *testing.T) {
	for name, tg := range map[string]testGraph{
		"ws200":  undirected(connected(graph.WattsStrogatz(200, 6, 0.1, 13))),
		"ba300":  undirected(connected(graph.BarabasiAlbert(300, 3, 41))),
		"dsf300": directed(graph.DirectedScaleFree(300, 3, 6)),
	} {
		ix := tg.mustBuild(t, Options{NumLandmarks: 12})
		if ix.ms.spg == nil {
			t.Fatalf("%s: the shortest-meta-path table capped out at this size", name)
		}
		pairs := randomPairs(tg.numVertices(), 150, 7)
		for _, table := range []bool{true, false} {
			if !table {
				ix.ms.spg = nil
			}
			sr := NewSearcher(ix)
			metaEdges := 0
			for _, p := range pairs {
				got, want := sr.Sketch(p[0], p[1]), referenceSketch(ix, p[0], p[1])
				if f := sketchDiff(got, want); f != "" {
					t.Fatalf("%s table=%v: S(%d,%d) differs in %s:\n got %+v\nwant %+v", name, table, p[0], p[1], f, got, want)
				}
				metaEdges += len(got.MetaEdges)
			}
			if metaEdges == 0 {
				t.Fatalf("%s table=%v: no sketch held a meta-edge", name, table)
			}
		}
	}
}

// TestSketchIsTheSearchers: the sketch introspection returns is the one
// the query ran. On both graph kinds — landmark endpoints, u = v and
// pairs no path joins included — Reader.Sketch agrees with the same
// pair's QueryStats (d⊤, the pair count, and no more sketch edges than
// label entries scanned), two calls return the same slices in the same
// order, and a sketch taken between two queries on one reader leaves
// every answer equal to the oracle: the pooled searcher's sketch state
// is released.
func TestSketchIsTheSearchers(t *testing.T) {
	for name, tg := range map[string]testGraph{
		"ba300":  undirected(connected(graph.BarabasiAlbert(300, 3, 41))),
		"er300":  undirected(graph.ErdosRenyi(300, 360, 2)),
		"dsf300": directed(graph.DirectedScaleFree(300, 3, 6)),
		"der300": directed(graph.DirectedErdosRenyi(300, 1200, 3)),
	} {
		ix := tg.mustBuild(t, Options{NumLandmarks: 16})
		rd := NewReader(func() *Index { return ix })
		pairs := randomPairs(tg.numVertices(), 200, 11)
		for i, r := range ix.Landmarks()[:4] {
			x := pairs[i][0]
			pairs = append(pairs, [2]graph.V{r, x}, [2]graph.V{x, r}, [2]graph.V{r, ix.Landmarks()[i+1]}, [2]graph.V{r, r}, [2]graph.V{x, x})
		}
		var dst graph.SPG
		disconnected := 0
		for _, p := range pairs {
			u, v := p[0], p[1]
			sk := rd.Sketch(u, v)
			if f := sketchDiff(rd.Sketch(u, v), sk); f != "" {
				t.Fatalf("%s: two sketches of (%d,%d) differ in %s", name, u, v, f)
			}
			st := rd.QueryIntoStats(&dst, u, v)
			if want := tg.oracle(u, v); !dst.Equal(want) {
				t.Fatalf("%s: SPG(%d,%d) after a sketch = %v, want %v", name, u, v, &dst, want)
			}
			if st.Dist == graph.InfDist {
				disconnected++
			}
			if sk.DTop != st.DTop || len(sk.Pairs) != st.SketchPairs || int64(len(sk.USide)+len(sk.VSide)) > st.LabelEntries {
				t.Fatalf("%s: S(%d,%d) = d⊤ %d, %d pairs, %d+%d edges; query: d⊤ %d, %d pairs, %d label entries",
					name, u, v, sk.DTop, len(sk.Pairs), len(sk.USide), len(sk.VSide), st.DTop, st.SketchPairs, st.LabelEntries)
			}
		}
		if disconnected == 0 && (name == "er300" || name == "der300") {
			t.Fatalf("%s: no pair without a path", name)
		}
	}
}

// TestRebindLeavesTheMetaTable: a pooled searcher moves between the
// epochs of a dynamic index, whose meta states need not all hold the
// shortest-meta-path table (it is capped). A searcher that read table
// rows under one epoch and scans on the fly under the next must not
// write its scan into the rows the first epoch still serves.
func TestRebindLeavesTheMetaTable(t *testing.T) {
	g := connected(graph.BarabasiAlbert(300, 3, 41))
	tabled := MustBuild(g, Options{NumLandmarks: 12})
	capped := MustBuild(g, Options{NumLandmarks: 12})
	capped.ms.spg = nil
	before := make([][]int32, len(tabled.ms.spg))
	for i, row := range tabled.ms.spg {
		before[i] = slices.Clone(row)
	}
	pairs := randomPairs(g.NumVertices(), 100, 3)
	sr := NewSearcher(tabled)
	for _, p := range pairs {
		sr.Query(p[0], p[1])
	}
	if !sr.Rebind(capped) {
		t.Fatal("the two indexes share vertices and landmark count")
	}
	for _, p := range pairs {
		sr.Query(p[0], p[1])
	}
	for i, row := range tabled.ms.spg {
		if !slices.Equal(row, before[i]) {
			t.Fatalf("table row %d = %v after the searcher moved on, was %v", i, row, before[i])
		}
	}
}

func TestMetaSPGPrecomputeMatchesOnTheFly(t *testing.T) {
	g := connected(graph.BarabasiAlbert(300, 4, 17))
	ix := MustBuild(g, Options{NumLandmarks: 16})
	if ix.ms.spg == nil {
		t.Skip("precompute capped out (unexpected at this size)")
	}
	R := ix.numLand
	var buf []int32
	for i := 0; i < R; i++ {
		for j := 0; j < R; j++ {
			if i == j || ix.ms.distM[i*R+j] == graph.InfDist {
				continue
			}
			want := map[int32]bool{}
			for k := range ix.ms.meta {
				if ix.ms.onMetaShortestPath(i, j, k) {
					want[int32(k)] = true
				}
			}
			got := ix.ms.metaSPGEdges(i, j, buf)
			if len(got) != len(want) {
				t.Fatalf("pair (%d,%d): %d precomputed vs %d on-the-fly", i, j, len(got), len(want))
			}
			for _, k := range got {
				if !want[k] {
					t.Fatalf("pair (%d,%d): spurious meta edge %d", i, j, k)
				}
			}
		}
	}
}

func TestSketchTrivialPairs(t *testing.T) {
	g := graph.Star(10)
	ix := MustBuild(g, Options{NumLandmarks: 1}) // centre is the landmark
	sr := NewSearcher(ix)
	sk := sr.Sketch(1, 2)
	if sk.DTop != 2 {
		t.Fatalf("star spokes d⊤ = %d, want 2", sk.DTop)
	}
	sk = sr.Sketch(0, 5) // landmark endpoint
	if sk.DTop != 1 {
		t.Fatalf("landmark to spoke d⊤ = %d, want 1", sk.DTop)
	}
}

func TestEntryListVirtualLandmark(t *testing.T) {
	g := graph.Cycle(8)
	ix := MustBuild(g, Options{Landmarks: []graph.V{3}})
	es := ix.entryList(3, ix.labelTo, nil)
	if len(es) != 1 || es[0].Rank != 0 || es[0].Sigma != 0 {
		t.Fatalf("virtual entry = %+v", es)
	}
}

func TestSearchStatsTraversalBounded(t *testing.T) {
	// Arcs scanned by a QbS query must be well below a full-graph scan
	// on a hub-dominated graph (the §6.5 efficiency argument).
	g := connected(graph.BarabasiAlbert(2000, 4, 99))
	ix := MustBuild(g, Options{NumLandmarks: 20})
	sr := NewSearcher(ix)
	rng := rand.New(rand.NewSource(17))
	var qbsArcs int64
	var bibArcs int64
	bib := bfs.NewBidirectional(g)
	for i := 0; i < 200; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		_, st := sr.QueryWithStats(u, v)
		qbsArcs += st.ArcsScanned
		_, st2 := bib.Query(u, v)
		bibArcs += st2.ArcsScanned
	}
	if qbsArcs >= bibArcs {
		t.Fatalf("QbS scanned %d arcs vs Bi-BFS %d: sparsification+sketch must reduce traversal", qbsArcs, bibArcs)
	}
}

// twoPassSketch is the sketch scan as first written, the reference for
// computeSketch's single pass: one scan of |L(u)|×|L(v)| for d⊤, a
// second for the pairs that reach it. It returns d⊤, the pairs and the
// two sides' sketch edges, and leaves sr's sketch released.
func twoPassSketch(sr *Searcher, u, v graph.V) (int32, []SketchPair, []SketchEndpoint, []SketchEndpoint) {
	ix := sr.ix
	R := ix.numLand
	fwd, bwd := &sr.fwd, &sr.bwd
	fwd.ent = ix.entryList(u, fwd.labels, fwd.ent)
	bwd.ent = ix.entryList(v, bwd.labels, bwd.ent)
	dTop := graph.InfDist
	for _, eu := range fwd.ent {
		for _, ev := range bwd.ent {
			if dm := ix.ms.distM[eu.Rank*R+ev.Rank]; dm != graph.InfDist {
				dTop = min(dTop, eu.Sigma+dm+ev.Sigma)
			}
		}
	}
	var pairs []SketchPair
	if dTop != graph.InfDist {
		for _, eu := range fwd.ent {
			for _, ev := range bwd.ent {
				dm := ix.ms.distM[eu.Rank*R+ev.Rank]
				if dm == graph.InfDist || eu.Sigma+dm+ev.Sigma != dTop {
					continue
				}
				pairs = append(pairs, SketchPair{R: eu.Rank, RPrime: ev.Rank})
				fwd.keep(eu)
				bwd.keep(ev)
			}
		}
	}
	uSide, vSide := fwd.sketchEdges(), bwd.sketchEdges()
	sr.releaseSketch()
	return dTop, pairs, uSide, vSide
}

// TestOnePassSketchMatchesTwoPass holds computeSketch to twoPassSketch
// on random label sets: the labels and the meta distances of a built
// index are overwritten with small random values, so that sums tie
// often and the minimum is often first reached after ties at a larger
// sum have been kept. d⊤, the pairs and both sides' sketch edges must
// agree element for element.
func TestOnePassSketchMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	lateDrops := 0 // pairs whose scan kept ≥ 2 ties before a strictly smaller sum
	for trial := 0; trial < 30; trial++ {
		tg := undirected(graph.ErdosRenyi(80, 200, int64(trial)))
		if trial%2 == 1 {
			tg = directed(graph.DirectedErdosRenyi(80, 400, int64(trial)))
		}
		ix := tg.mustBuild(t, Options{NumLandmarks: 12})
		for _, labels := range [2][][]uint8{ix.labelTo, ix.labelFrom} {
			for _, col := range labels {
				for x := range col {
					col[x] = NoEntry
					if rng.Intn(10) < 7 {
						col[x] = uint8(1 + rng.Intn(3))
					}
				}
			}
		}
		for i := range ix.ms.distM {
			ix.ms.distM[i] = int32(rng.Intn(4))
			if rng.Intn(10) == 0 {
				ix.ms.distM[i] = graph.InfDist
			}
		}
		sr := NewSearcher(ix)
		for _, p := range randomPairs(tg.numVertices(), 100, int64(trial)) {
			u, v := p[0], p[1]
			wantTop, wantPairs, wantU, wantV := twoPassSketch(sr, u, v)
			run, ties := graph.InfDist, 0
			for _, eu := range sr.fwd.ent {
				for _, ev := range sr.bwd.ent {
					dm := ix.ms.distM[eu.Rank*ix.numLand+ev.Rank]
					if dm == graph.InfDist {
						continue
					}
					switch pi := eu.Sigma + dm + ev.Sigma; {
					case pi < run:
						if ties >= 2 {
							lateDrops++
						}
						run, ties = pi, 1
					case pi == run:
						ties++
					}
				}
			}
			got := sr.Sketch(u, v)
			if got.DTop != wantTop || !slices.Equal(got.Pairs, wantPairs) || !slices.Equal(got.USide, wantU) || !slices.Equal(got.VSide, wantV) {
				t.Fatalf("trial %d (%d,%d): one pass d⊤ %d pairs %v sides %v %v; two passes d⊤ %d pairs %v sides %v %v",
					trial, u, v, got.DTop, got.Pairs, got.USide, got.VSide, wantTop, wantPairs, wantU, wantV)
			}
		}
	}
	if lateDrops == 0 {
		t.Fatal("no scan kept ties before a strictly smaller sum")
	}
	t.Logf("%d scans kept ties before a strictly smaller sum", lateDrops)
}
