package core

import (
	"fmt"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// meetingCases counts, over one fixture, how often each branch the
// meeting rule touches was taken.
type meetingCases struct {
	large     int // answers of at least 100 edges or arcs
	adjacent  int // d = 1: the first expansion meets at once
	landmark  int // an endpoint is a landmark: no bidirectional search
	both      int // d_G⁻ = d⊤: reverse and recover both follow the abandoned level
	recovered int // d_G⁻ > d⊤: the search reached the bound and never met
	reversed  int // d_G⁻ < d⊤: reverse alone
}

// oracle is the scalar-BFS answer to one pair on a fixture of either
// kind.
func (tg testGraph) oracle(u, v graph.V) *graph.SPG {
	if tg.dir != nil {
		return bfs.OracleDiSPG(tg.dir, u, v)
	}
	return bfs.OracleSPG(tg.und, u, v)
}

// checkOracle answers the oracle's pair with sr and holds the two equal.
func checkOracle(t *testing.T, label string, sr *Searcher, want *graph.SPG) QueryStats {
	t.Helper()
	got, st := sr.QueryWithStats(want.Source, want.Target)
	if !got.Equal(want) {
		t.Fatalf("%s: got %v\nwant %v\nstats %+v", label, got, want, st)
	}
	return st
}

// levelsOf maps each vertex of side's completed levels to its level.
func levelsOf(side *searchSide) map[graph.V]int32 {
	depth := map[graph.V]int32{}
	for i := int32(0); i <= side.D; i++ {
		for _, x := range side.Level(i) {
			depth[x] = i
		}
	}
	return depth
}

// checkMeetingState inspects the searcher after a query for what the
// meeting rule promises: the two sides hold complete levels only — every
// vertex a side has seen, bar the landmarks' sentinels, is listed on the
// level of its depth — those levels are disjoint — the visited sets only
// grow, so disjoint at the end is disjoint between any two levels on the
// way — and every crossing arc joins the outermost level of one side to
// the outermost level of the other, their depths adding up to the
// distance.
func checkMeetingState(t *testing.T, sr *Searcher, st QueryStats, u, v graph.V) {
	t.Helper()
	fwdLevels := levelsOf(&sr.fwd)
	for _, side := range [2]*searchSide{&sr.fwd, &sr.bwd} {
		depth := levelsOf(side)
		for x := graph.V(0); int(x) < sr.ix.out.NumVertices(); x++ {
			if d, built := depth[x]; side.WS.Seen(x) && side.WS.Dist(x) >= 0 && (!built || d != side.WS.Dist(x)) {
				t.Fatalf("(%d,%d): %d seen at depth %d, not on that level of the %d complete ones", u, v, x, side.WS.Dist(x), side.D+1)
			}
		}
		if side == &sr.bwd {
			for y := range depth {
				if _, ok := fwdLevels[y]; ok {
					t.Fatalf("(%d,%d): %d is in both visited sets", u, v, y)
				}
			}
		}
	}
	if !st.UsedReverse {
		return
	}
	if st.DGMinus != sr.fwd.D+1+sr.bwd.D || st.DGMinus != st.Dist {
		t.Fatalf("(%d,%d): d_G⁻ %d, distance %d, completed depths %d and %d", u, v, st.DGMinus, st.Dist, sr.fwd.D, sr.bwd.D)
	}
	side, other := &sr.fwd, &sr.bwd
	if len(sr.bs.Cross) > 0 && side.WS.Dist(sr.bs.Cross[0].From) != side.D {
		side, other = other, side
	}
	for _, c := range sr.bs.Cross {
		_, inFwd := fwdLevels[c.To]
		if side.WS.Dist(c.From) != side.D || other.WS.Dist(c.To) != other.D || inFwd == (side == &sr.fwd) {
			t.Fatalf("(%d,%d): crossing arc %v is not between the outermost levels (%d, %d)", u, v, c, side.D, other.D)
		}
	}
}

// TestArcMeetingMatchesOracle runs the guided search against the
// scalar-BFS oracle on both kinds of graph, and checks the searcher's
// state against the meeting rule after each query. The ER fixture is
// sized (degree 24: 24³ ≈ 3·n, 24⁴ ≈ 66·n) so that most pairs are three
// hops apart and those four apart have answers of a hundred edges and
// more; the landmark counts so that all three cases of Eq. 5 occur on
// either kind of graph.
func TestArcMeetingMatchesOracle(t *testing.T) {
	er := connected(graph.ErdosRenyi(5000, 60000, 9))
	ba := connected(graph.BarabasiAlbert(600, 4, 10))
	fixtures := map[string]testGraph{
		"er":        undirected(er),
		"ba":        undirected(ba),
		"paperFig3": undirected(paperFigure3Graph()),
		"paperFig4": undirected(paperFigure4Graph()),
		"er-di":     directed(graph.AsDirected(er)),
		"ba-di":     directed(graph.AsDirected(ba)),
		"der":       directed(graph.DirectedErdosRenyi(1200, 14000, 11)),
		"fig4-di":   directed(graph.AsDirected(paperFigure4Graph())),
	}
	var undirectedSeen, directedSeen meetingCases
	for name, tg := range fixtures {
		n := tg.numVertices()
		seen := &undirectedSeen
		if tg.dir != nil {
			seen = &directedSeen
		}
		for _, landmarks := range []int{2, 12} {
			ix := tg.mustBuild(t, Options{NumLandmarks: min(landmarks, n)})
			pairs := somePairs(n, 60, int64(landmarks))
			for _, r := range ix.Landmarks()[:2] {
				pairs = append(pairs, [2]graph.V{r, graph.V(n - 1)}, [2]graph.V{0, r})
			}
			for x := graph.V(0); len(pairs) < 70 && int(x) < n; x++ {
				if ns := ix.out.Neighbors(x); len(ns) > 0 {
					pairs = append(pairs, [2]graph.V{x, ns[0]})
				}
			}
			sr := NewSearcher(ix)
			for _, p := range pairs {
				u, v := p[0], p[1]
				want := tg.oracle(u, v)
				label := fmt.Sprintf("%s R=%d (%d,%d)", name, landmarks, u, v)
				if got := sr.Distance(u, v); got != want.Dist {
					t.Fatalf("%s: Distance = %d, BFS says %d", label, got, want.Dist)
				}
				st := checkOracle(t, label, sr, want)
				if u == v {
					continue // answered before any search
				}
				checkMeetingState(t, sr, st, u, v)
				if want.Dist == graph.InfDist {
					continue
				}
				switch {
				case ix.IsLandmark(u) || ix.IsLandmark(v):
					seen.landmark++
				case st.UsedReverse && st.UsedRecover:
					seen.both++
				case st.UsedRecover:
					seen.recovered++
				default:
					seen.reversed++
				}
				if want.Dist == 1 {
					seen.adjacent++
				}
				if want.NumEdges() >= 100 {
					seen.large++
				}
			}
		}
	}
	for kind, seen := range map[string]meetingCases{"undirected": undirectedSeen, "directed": directedSeen} {
		t.Logf("%s: %+v", kind, seen)
		if seen.large == 0 || seen.adjacent == 0 || seen.landmark == 0 || seen.both == 0 || seen.recovered == 0 || seen.reversed == 0 {
			t.Errorf("%s: a case of the meeting rule never occurred: %+v", kind, seen)
		}
	}
}

// TestBoundLevelIsNotBuilt checks what a search that reached its bound
// leaves behind. On a CoverageAll pair the guided search grows until
// its depths sum to d⊤−1 without meeting, and the level at the bound is
// only tested: afterwards each side's visited set is exactly its
// completed levels (and the landmarks' sentinels), each vertex at its
// level's depth, and the answer — recover attaching at the last level
// completed — is the oracle's.
func TestBoundLevelIsNotBuilt(t *testing.T) {
	er := connected(graph.ErdosRenyi(2000, 12000, 12))
	ba := connected(graph.BarabasiAlbert(600, 4, 10))
	fixtures := map[string]testGraph{
		"er":    undirected(er),
		"ba":    undirected(ba),
		"er-di": directed(graph.AsDirected(er)),
		"der":   directed(graph.DirectedErdosRenyi(1200, 14000, 11)),
	}
	bounded := map[bool]int{} // CoverageAll pairs whose search reached d⊤, by directedness
	for name, tg := range fixtures {
		n := tg.numVertices()
		for _, landmarks := range []int{4, 20} {
			ix := tg.mustBuild(t, Options{NumLandmarks: landmarks})
			sr := NewSearcher(ix)
			spg := new(graph.SPG)
			for _, p := range somePairs(n, 80, int64(landmarks)) {
				u, v := p[0], p[1]
				st := sr.QueryInto(spg, u, v)
				label := fmt.Sprintf("%s R=%d (%d,%d)", name, landmarks, u, v)
				if want := tg.oracle(u, v); !spg.Equal(want) {
					t.Fatalf("%s: got %v\nwant %v\nstats %+v", label, spg, want, st)
				}
				if st.Coverage != CoverageAll || ix.IsLandmark(u) || ix.IsLandmark(v) {
					continue
				}
				if sr.fwd.D+sr.bwd.D+1 == st.DTop {
					bounded[tg.dir != nil]++
				}
				for _, side := range [2]*searchSide{&sr.fwd, &sr.bwd} {
					depth := levelsOf(side)
					for x := graph.V(0); int(x) < n; x++ {
						d, built := depth[x]
						switch {
						case ix.IsLandmark(x):
							if side.WS.Dist(x) != -1 {
								t.Fatalf("%s: landmark %d at depth %d", label, x, side.WS.Dist(x))
							}
						case built != side.WS.Seen(x):
							t.Fatalf("%s: %d seen %v by a side whose %d completed levels hold it: %v", label, x, side.WS.Seen(x), side.D+1, built)
						case built && side.WS.Dist(x) != d:
							t.Fatalf("%s: %d at depth %d on level %d", label, x, side.WS.Dist(x), d)
						}
					}
				}
			}
		}
	}
	if bounded[false] == 0 || bounded[true] == 0 {
		t.Fatalf("no CoverageAll search reached its bound: %v", bounded)
	}
	t.Logf("CoverageAll searches that reached d⊤ (by directed): %v", bounded)
}

// exhaustedSideArcs is u → r → a chain of five vertices → v with a 4-ary
// in-tree of depth 5 hanging into v: 1 372 vertices, u = 0, r = 1,
// v = 7. With r the one landmark, u's only arc leads into it, so the
// forward side of the search is exhausted after one level.
func exhaustedSideArcs() (n int, arcs []graph.Arc) {
	for x := graph.V(0); x < 7; x++ {
		arcs = append(arcs, graph.Arc{From: x, To: x + 1})
	}
	next := graph.V(8)
	parents := []graph.V{7}
	for depth := 0; depth < 5; depth++ {
		var children []graph.V
		for _, p := range parents {
			for i := 0; i < 4; i++ {
				arcs = append(arcs, graph.Arc{From: next, To: p})
				children = append(children, next)
				next++
			}
		}
		parents = children
	}
	return int(next), arcs
}

// TestExhaustedSideEndsTheSearch holds the guided search to Bi-BFS's stop
// rule: once one side's frontier is empty no u–v path avoids the
// landmarks, so the search ends there instead of growing the other side
// through the whole tree. What remains is the recover walk down the
// chain: the answer goes through the landmark.
func TestExhaustedSideEndsTheSearch(t *testing.T) {
	n, arcs := exhaustedSideArcs()
	if n != 1372 {
		t.Fatalf("fixture has %d vertices, want 1372", n)
	}
	edges := make([]graph.Edge, len(arcs))
	for i, a := range arcs {
		edges[i] = graph.Edge{U: a.From, W: a.To}
	}
	const u, r, v = 0, 1, 7
	for name, tg := range map[string]testGraph{
		"undirected": undirected(graph.MustFromEdges(n, edges)),
		"directed":   directed(graph.MustDiFromArcs(n, arcs)),
	} {
		sr := NewSearcher(tg.mustBuild(t, Options{Landmarks: []graph.V{r}}))
		tg.check(t, sr, u, v)
		if got := sr.QueryInto(new(graph.SPG), u, v).ArcsScanned; got > 16 {
			t.Errorf("%s: QueryInto scanned %d arcs, want ≤ 16", name, got)
		}
		if got := sr.query(u, v, false).ArcsScanned; got > 2 {
			t.Errorf("%s: Distance scanned %d arcs, want ≤ 2", name, got)
		}
	}
}

// TestUnguidedSearchIsBiBFS pins that the guided search and the Bi-BFS
// baseline run one search (bfs.Search). The only landmark is an
// isolated vertex, so d⊤ = ∞ bounds nothing and G⁻ = G: the guided
// search must then be Bi-BFS arc for arc, the same answer from the same
// adjacency entries, disconnected pairs included. The pairs avoid the
// landmark, whose queries skip the search.
func TestUnguidedSearchIsBiBFS(t *testing.T) {
	const n = 3000 // the isolated landmark is vertex n
	und := graph.MustFromEdges(n+1, graph.ErdosRenyi(n, 3000, 3).Edges())
	dir := graph.MustDiFromArcs(n+1, graph.DirectedErdosRenyi(n, 9000, 3).Arcs())
	for name, tc := range map[string]struct {
		tg testGraph
		bi *bfs.Bidirectional
	}{
		"undirected": {undirected(und), bfs.NewBidirectional(und)},
		"directed":   {directed(dir), bfs.NewDirectedBidirectional(dir)},
	} {
		sr := NewSearcher(tc.tg.mustBuild(t, Options{Landmarks: []graph.V{n}}))
		got := new(graph.SPG)
		differ := 0
		for _, p := range randomPairs(n, 2000, 29) {
			u, v := p[0], p[1]
			st := sr.QueryInto(got, u, v)
			want, wantSt := tc.bi.Query(u, v)
			if !got.Equal(want) || st.ArcsScanned != wantSt.ArcsScanned {
				if differ == 0 {
					t.Errorf("%s (%d,%d): distance %d after %d arcs, Bi-BFS %d after %d", name, u, v, got.Dist, st.ArcsScanned, want.Dist, wantSt.ArcsScanned)
				}
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("%s: %d of 2000 pairs differ from Bi-BFS", name, differ)
		}
	}
}
