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
// and the workspace under test, and beside them the depth of every
// vertex the side has visited, kept in a map.
type meetingSide struct {
	push     graph.Adjacency
	ws       *traverse.Workspace
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
//     d + 1 + other.d is the pair's distance.
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
				{push: g.out, ws: traverse.NewWorkspace(n)},
				{push: g.in, ws: traverse.NewWorkspace(n)},
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
}

func runMeetingSearch(t *testing.T, label string, sides [2]*meetingSide, u, v graph.V, removed map[graph.V]bool, first bool) {
	t.Helper()
	for i, root := range []graph.V{u, v} {
		s := sides[i]
		s.ws.Reset()
		s.ws.SetDist(root, 0)
		for r := range removed {
			s.ws.SetDist(r, -1)
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

		dst := []graph.V{-5} // a prefix the call must leave alone
		level, cross, _ := traverse.ExpandMeeting(s.push, s.ws, o.ws, s.frontier, s.d, dst, nil, first)
		if level[0] != -5 {
			t.Fatalf("%s: dst prefix overwritten", label)
		}
		level = level[1:]
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
