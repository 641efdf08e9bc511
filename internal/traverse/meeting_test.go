package traverse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// meetingSide is one direction of a model bidirectional search: its arcs
// and the workspace under test, beside them the depth of every vertex
// the side has visited, kept in a map, and a twin workspace that the
// reference kernel grows in step.
type meetingSide struct {
	push     graph.Adjacency
	ws, ref  *traverse.Workspace
	depth    map[graph.V]int32
	frontier []graph.V
	d        int32
}

func compareArcs(a, b graph.Arc) int {
	if a.From != b.From {
		return int(a.From) - int(b.From)
	}
	return int(a.To) - int(b.To)
}

// TestExpandMeetingMatchesModel drives two sides against each other the
// way a bidirectional search does, over undirected and directed graphs
// with a few vertices removed the way QbS removes landmarks (a sentinel
// depth on both sides). After every call it holds the result to a
// set-based model of the meeting rule:
//
//   - the call returns the whole next level and no crossing arc, or
//     every arc from the frontier to a vertex the other side has seen
//     (one of them under first) and dst untouched;
//   - while no arc has crossed the two visited sets are disjoint;
//   - a crossing arc lands on the other side's outermost level, so that
//     d + 1 + other.d is the pair's distance;
//   - a level that met leaves the visited set as it found it;
//   - level, crossing arcs and arc count are, in order, what the
//     one-sweep kernel this one replaced returns on a twin search;
//   - the same level called as the search's last (last) returns the
//     same crossing arcs and arc count, appends nothing, and leaves the
//     workspace bit-identical: seen words, touched-log length, settled
//     bits, depths and pending depth.
func TestExpandMeetingMatchesModel(t *testing.T) {
	type adjPair struct{ out, in graph.Adjacency }
	graphs := map[string]adjPair{}
	for name, g := range map[string]*graph.Graph{
		"sparse": randomGraph(300, 450, 41),
		"dense":  randomGraph(200, 1500, 42),
		"grid":   graph.Grid(12, 12),
		"star":   graph.Star(70),
	} {
		graphs[name] = adjPair{g, g}
	}
	for name, g := range map[string]*graph.DiGraph{
		"der":  graph.DirectedErdosRenyi(250, 900, 43),
		"dsf":  graph.DirectedScaleFree(250, 3, 44),
		"ring": graph.MustDiFromArcs(5, []graph.Arc{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 0}}),
	} {
		graphs[name] = adjPair{g.OutView(), g.InView()}
	}
	for name, g := range graphs {
		n := g.out.NumVertices()
		rng := rand.New(rand.NewSource(int64(n)))
		for _, first := range []bool{false, true} {
			sides := [2]*meetingSide{
				{push: g.out, ws: traverse.NewWorkspace(n), ref: traverse.NewWorkspace(n)},
				{push: g.in, ws: traverse.NewWorkspace(n), ref: traverse.NewWorkspace(n)},
			}
			for q := 0; q < 60; q++ {
				u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
				if q == 0 && g.out.Degree(u) > 0 {
					v = g.out.Neighbors(u)[0] // an adjacent pair
				}
				if u == v {
					continue
				}
				removed := map[graph.V]bool{}
				for i := rng.Intn(4); i > 0; i-- {
					if r := graph.V(rng.Intn(n)); r != u && r != v {
						removed[r] = true
					}
				}
				label := fmt.Sprintf("%s first=%v (%d,%d) minus %v", name, first, u, v, removed)
				runMeetingSearch(t, label, sides, u, v, removed, first)
			}
		}
	}
	checkExpandBlocks(t)
}

// checkExpandBlocks holds single calls to the reference kernel on hand-
// built levels that a search over a small random graph never produces:
// frontiers on both sides of the block size, over an adjacency large
// enough that rows are requested a block ahead, at depths on both sides
// of the growth the two-sweep level asks for; rows that are empty,
// shorter than one cache line and longer than four; a crossing arc only
// in the last row of the last block, or first met in the middle of a
// block; and no other side at all. Each level is also called as a
// search's last, which must find the same crossing arcs and change
// nothing.
func checkExpandBlocks(t *testing.T) {
	const (
		maxFrontier = 33
		pool        = 120 // targets the rows share, so that rows overlap
		padding     = 420 // a complete digraph beside them: the arcs that make the adjacency large
	)
	// Vertex ids: frontier candidates, then each one's private target,
	// then the shared pool, then the padding.
	private := func(i int) graph.V { return graph.V(maxFrontier + i) }
	shared := func(k int) graph.V { return graph.V(2*maxFrontier + k%pool) }
	n := 2*maxFrontier + pool + padding
	var arcs []graph.Arc
	for i := 0; i < maxFrontier; i++ {
		var row int // shared targets; every non-empty row also reaches its private one
		switch i % 7 {
		case 3:
			continue // an empty row
		case 0:
			row = 80
		case 1:
			row = 2
		default:
			row = 15
		}
		arcs = append(arcs, graph.Arc{From: graph.V(i), To: private(i)})
		for k := 0; k < row; k++ {
			arcs = append(arcs, graph.Arc{From: graph.V(i), To: shared(5*i + k)})
		}
	}
	for a := n - padding; a < n; a++ {
		for b := n - padding; b < n; b++ {
			if a != b {
				arcs = append(arcs, graph.Arc{From: graph.V(a), To: graph.V(b)})
			}
		}
	}
	g := graph.MustDiFromArcs(n, arcs)
	push := g.OutView()
	if push.NumArcs() < traverse.ResidentArcs {
		t.Fatalf("%d arcs: rows would not be requested ahead", push.NumArcs())
	}

	type twin struct{ ws, other *traverse.Workspace }
	kernel, oracle := twin{traverse.NewWorkspace(n), traverse.NewWorkspace(n)}, twin{traverse.NewWorkspace(n), traverse.NewWorkspace(n)}
	for _, length := range []int{0, 1, 15, 16, 17, maxFrontier} {
		frontier := make([]graph.V, length)
		for i := range frontier {
			frontier[i] = graph.V(i)
		}
		theirs := map[string][]graph.V{
			"none":     {graph.V(n - 1)},
			"no other": nil,
		}
		if length > 0 {
			theirs["last row"] = []graph.V{private(length - 1)}
			theirs["mid-block"] = []graph.V{private(length / 2), shared(5*(length/2) + 1), private(length - 1)}
		}
		for where, met := range theirs {
			for _, d := range []int32{0, 1} {
				for _, first := range []bool{false, true} {
					label := fmt.Sprintf("frontier of %d at depth %d, other side at %s, first=%v", length, d, where, first)
					for _, tw := range []twin{kernel, oracle} {
						tw.ws.Reset()
						tw.other.Reset()
						for _, x := range frontier {
							tw.ws.SetDist(x, d)
						}
						// A vertex seen by both, as a removed landmark is, and
						// one this side reached earlier.
						tw.ws.SetDist(shared(3), -1)
						tw.other.SetDist(shared(3), -1)
						tw.ws.SetDist(shared(7), 0)
						for _, y := range met {
							tw.other.SetDist(y, 0)
						}
					}
					other, refOther := kernel.other, oracle.other
					if met == nil {
						other, refOther = nil, nil
					}
					seenBefore := seenSet(kernel.ws, n)
					lastLevel, lastCross, lastArcs := expandLast(t, label, push, kernel.ws, other, frontier, d, first)
					dst, cross := []graph.V{-5}, []graph.Arc{{From: -5, To: -5}}
					level, cross, arcs := traverse.ExpandMeeting(push, kernel.ws, other, frontier, d, dst, cross, first, false)
					refLevel, refCross, refArcs := traverse.ReferenceExpand(push, oracle.ws, refOther, frontier, d, []graph.V{-5}, []graph.Arc{{From: -5, To: -5}}, first)
					if !slices.Equal(level, refLevel) || !slices.Equal(cross, refCross) || arcs != refArcs {
						t.Fatalf("%s: level %v, crossing %v, %d arcs; the one-sweep kernel has %v, %v, %d", label, level, cross, arcs, refLevel, refCross, refArcs)
					}
					if !slices.Equal(lastLevel, refLevel[:1]) || !slices.Equal(lastCross, refCross) || lastArcs != refArcs {
						t.Fatalf("%s, last: level %v, crossing %v, %d arcs; the one-sweep kernel has %v, %v, %d", label, lastLevel, lastCross, lastArcs, refLevel, refCross, refArcs)
					}
					crossed := len(cross) > 1
					if want := where == "last row" || where == "mid-block"; crossed != want {
						t.Fatalf("%s: crossing arcs %v", label, cross)
					}
					if crossed {
						if len(level) != 1 {
							t.Fatalf("%s: a level that met returned %v", label, level)
						}
						if !slices.Equal(seenSet(kernel.ws, n), seenBefore) {
							t.Fatalf("%s: a level that met changed the visited set", label)
						}
						continue
					}
					for _, y := range level[1:] {
						if kernel.ws.Dist(y) != d+1 {
							t.Fatalf("%s: depth of %d is %d", label, y, kernel.ws.Dist(y))
						}
					}
					if want := seenSet(oracle.ws, n); !slices.Equal(seenSet(kernel.ws, n), want) {
						t.Fatalf("%s: visited set differs from the one-sweep kernel's", label)
					}
				}
			}
		}
	}
}

// expandLast calls ExpandMeeting on a level as the search's last, with
// the prefixes of dst and cross that ReferenceExpand is given, and fails
// unless it left ws bit for bit as it was.
func expandLast(t *testing.T, label string, push graph.Adjacency, ws, other *traverse.Workspace, frontier []graph.V, d int32, first bool) ([]graph.V, []graph.Arc, int64) {
	t.Helper()
	before := traverse.StateOf(ws)
	level, cross, arcs := traverse.ExpandMeeting(push, ws, other, frontier, d, []graph.V{-5}, []graph.Arc{{From: -5, To: -5}}, first, true)
	if !traverse.StateOf(ws).Equal(before) {
		t.Fatalf("%s: a last level changed the workspace", label)
	}
	return level, cross, arcs
}

// seenSet lists the vertices ws has seen.
func seenSet(ws *traverse.Workspace, n int) []graph.V {
	var seen []graph.V
	for v := graph.V(0); int(v) < n; v++ {
		if ws.Seen(v) {
			seen = append(seen, v)
		}
	}
	return seen
}

func runMeetingSearch(t *testing.T, label string, sides [2]*meetingSide, u, v graph.V, removed map[graph.V]bool, first bool) {
	t.Helper()
	for i, root := range []graph.V{u, v} {
		s := sides[i]
		for _, ws := range []*traverse.Workspace{s.ws, s.ref} {
			ws.Reset()
			ws.SetDist(root, 0)
			for r := range removed {
				ws.SetDist(r, -1)
			}
		}
		s.depth = map[graph.V]int32{root: 0}
		s.frontier = append(s.frontier[:0], root)
		s.d = 0
	}
	// The distance to meet at, by plain BFS without the removed vertices.
	want := int32(traverse.Infinity)
	dist := map[graph.V]int32{u: 0}
	for queue := []graph.V{u}; len(queue) > 0; queue = queue[1:] {
		x := queue[0]
		for _, y := range sides[0].push.Neighbors(x) {
			if _, seen := dist[y]; !seen && !removed[y] {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	if d, ok := dist[v]; ok {
		want = d
	}

	for len(sides[0].frontier) > 0 && len(sides[1].frontier) > 0 {
		s, o := sides[0], sides[1]
		if len(s.depth) > len(o.depth) {
			s, o = o, s
		}
		var wantCross []graph.Arc
		var wantLevel []graph.V
		for _, x := range s.frontier {
			for _, y := range s.push.Neighbors(x) {
				if _, mine := s.depth[y]; mine || removed[y] {
					continue
				}
				if _, theirs := o.depth[y]; theirs {
					wantCross = append(wantCross, graph.Arc{From: x, To: y})
				} else {
					wantLevel = append(wantLevel, y)
				}
			}
		}
		slices.Sort(wantLevel)
		wantLevel = slices.Compact(wantLevel)
		slices.SortFunc(wantCross, compareArcs)

		seenBefore := seenSet(s.ws, s.push.NumVertices())
		lastLevel, lastCross, lastArcs := expandLast(t, label, s.push, s.ws, o.ws, s.frontier, s.d, first)
		dst := []graph.V{-5} // a prefix the call must leave alone
		level, cross, arcs := traverse.ExpandMeeting(s.push, s.ws, o.ws, s.frontier, s.d, dst, nil, first, false)
		if level[0] != -5 {
			t.Fatalf("%s: dst prefix overwritten", label)
		}
		level = level[1:]
		refLevel, refCross, refArcs := traverse.ReferenceExpand(s.push, s.ref, o.ref, s.frontier, s.d, nil, nil, first)
		if !slices.Equal(level, refLevel) || !slices.Equal(cross, refCross) || arcs != refArcs {
			t.Fatalf("%s: level %v, crossing %v, %d arcs; the one-sweep kernel has %v, %v, %d", label, level, cross, arcs, refLevel, refCross, refArcs)
		}
		if len(lastLevel) != 1 || !slices.Equal(lastCross[1:], cross) || lastArcs != arcs {
			t.Fatalf("%s, last: level %v, crossing %v, %d arcs; want nothing, %v, %d", label, lastLevel[1:], lastCross[1:], lastArcs, cross, arcs)
		}
		if len(cross) > 0 && !slices.Equal(seenSet(s.ws, s.push.NumVertices()), seenBefore) {
			t.Fatalf("%s: a level that met changed the visited set", label)
		}
		slices.SortFunc(cross, compareArcs)
		if len(wantCross) > 0 {
			if len(level) != 0 {
				t.Fatalf("%s: a level that met returned %d vertices beside %d crossing arcs", label, len(level), len(cross))
			}
			if first {
				if len(cross) == 0 || !slices.Contains(wantCross, cross[0]) {
					t.Fatalf("%s: crossing arcs %v, want one or more of %v", label, cross, wantCross)
				}
			} else if !slices.Equal(cross, wantCross) {
				t.Fatalf("%s: crossing arcs %v, want %v", label, cross, wantCross)
			}
			for _, c := range cross {
				if o.depth[c.To] != o.d || o.ws.Dist(c.To) != o.d || s.ws.Dist(c.From) != s.d || s.ws.Seen(c.To) {
					t.Fatalf("%s: arc %v joins depths %d and %d of searches at %d and %d", label, c, s.ws.Dist(c.From), o.ws.Dist(c.To), s.d, o.d)
				}
			}
			if got := s.d + 1 + o.d; got != want {
				t.Fatalf("%s: met at distance %d, BFS says %d", label, got, want)
			}
			return
		}
		if len(cross) != 0 {
			t.Fatalf("%s: crossing arcs %v where none exist", label, cross)
		}
		slices.Sort(level)
		if !slices.Equal(level, wantLevel) {
			t.Fatalf("%s: level %d of side rooted at %d is %v, want %v", label, s.d+1, s.frontier, level, wantLevel)
		}
		s.d++
		for _, y := range level {
			if _, both := o.depth[y]; both {
				t.Fatalf("%s: %d is in both visited sets and no arc has crossed", label, y)
			}
			if s.ws.Dist(y) != s.d {
				t.Fatalf("%s: depth of %d is %d, want %d", label, y, s.ws.Dist(y), s.d)
			}
			s.depth[y] = s.d
		}
		s.frontier = append(s.frontier[:0], level...)
	}
	if want != traverse.Infinity {
		t.Fatalf("%s: search exhausted, BFS says distance %d", label, want)
	}
}
