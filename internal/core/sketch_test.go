package core

import (
	"math/rand"
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
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		sk := ix.Sketch(u, v)
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

func TestSketchDStarBounds(t *testing.T) {
	// Eq. 4: d*_t = max σ_S(r, t) − 1 over sketch endpoints.
	g := connected(graph.ErdosRenyi(150, 400, 81))
	ix := MustBuild(g, Options{NumLandmarks: 8})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 80; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		sk := ix.Sketch(u, v)
		var wantU, wantV int32
		for _, e := range sk.USide {
			if e.Sigma-1 > wantU {
				wantU = e.Sigma - 1
			}
		}
		for _, e := range sk.VSide {
			if e.Sigma-1 > wantV {
				wantV = e.Sigma - 1
			}
		}
		if sk.DStarU != wantU || sk.DStarV != wantV {
			t.Fatalf("d* mismatch: got (%d,%d) want (%d,%d)", sk.DStarU, sk.DStarV, wantU, wantV)
		}
	}
}

func TestSketchMetaEdgesLieOnShortestMetaPaths(t *testing.T) {
	g := connected(graph.WattsStrogatz(200, 6, 0.1, 13))
	ix := MustBuild(g, Options{NumLandmarks: 12})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		sk := ix.Sketch(u, v)
		for _, k := range sk.MetaEdges {
			ok := false
			for _, p := range sk.Pairs {
				if p.R != p.RPrime && ix.ms.onMetaShortestPath(p.R, p.RPrime, k) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("sketch meta edge %d not on any minimizing pair's meta path", k)
			}
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
	sk := ix.Sketch(1, 2)
	if sk.DTop != 2 {
		t.Fatalf("star spokes d⊤ = %d, want 2", sk.DTop)
	}
	sk = ix.Sketch(0, 5) // landmark endpoint
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
