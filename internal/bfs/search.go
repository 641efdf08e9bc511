package bfs

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// The two-sided search: the one bidirectional BFS of the repository. The
// Bi-BFS baseline (§6.1) runs it over G with no bound; the QbS guided
// search (Algorithm 4) runs it over G⁻ = G[V\R], bounded by the
// sketch's d⊤ — the caller gives every landmark a sentinel depth on
// both sides before Meet, so the expansion skips them as seen. A
// forward side grows from u over out-arcs, a backward side from v over
// in-arcs (an undirected graph is both), and Meet grows them until an
// arc crosses from one visited set to the other.
//
// Side rule: grow the smaller visited set, the forward one on a tie. An
// empty frontier ends the search (the pair is not joined), and so does
// the bound; side order never moves the depth sum at which they meet.
//
// Meeting rule. The level that expands side S tests each vertex it
// reaches against both visited sets (traverse.ExpandMeeting). While no
// arc has crossed, no vertex is in both: a level only ever adds vertices
// the other side has not seen. A crossing arc x→y therefore has x on S's
// frontier and y on the other side's outermost level — were y any
// deeper inside, x would have been reached from there — so the distance
// is S.D + 1 + other.D, the crossing arcs are exactly the answer's arcs
// over that cut, and the rest of the answer lies below their endpoints
// in levels both sides have completed. The level that met is abandoned:
// neither D nor the levels advance, and Reverse and Extract read
// complete levels only.
//
// The level whose crossing arcs would put the roots bound apart is the
// last the search may grow, and it is never expanded from:
// ExpandMeeting only tests it (last), and it joins neither the arena nor
// the visited set, met or not.

// Side is one direction of a two-sided search: its arcs (Push) and
// their reverse (pull, which only extraction walks), its orientation,
// the workspace holding its depths, and its BFS levels — the arena of
// visited vertices grouped by depth, level i = arena[off[i]:off[i+1]],
// whose size drives side selection.
type Side struct {
	Push     graph.Adjacency
	pull     graph.Adjacency
	backward bool // the side walks arcs against their orientation
	WS       *Workspace
	D        int32 // completed levels
	arena    []graph.V
	off      []int32
}

func (s *Side) reset(root graph.V) {
	s.WS.Reset()
	s.WS.SetDist(root, 0)
	s.arena = append(s.arena[:0], root)
	s.off = append(s.off[:0], 0, 1)
	s.D = 0
}

// Root returns the vertex the side grows from.
func (s *Side) Root() graph.V { return s.arena[0] }

// Level returns the side's vertices at depth i ≤ D.
func (s *Side) Level(i int32) []graph.V { return s.arena[s.off[i]:s.off[i+1]] }

// Arc returns the arc the side steps along from x to y as it lies in
// the graph: x→y on a forward side, y→x on a backward one.
func (s *Side) Arc(x, y graph.V) graph.Arc {
	if s.backward {
		return graph.Arc{From: y, To: x}
	}
	return graph.Arc{From: x, To: y}
}

// Search is a reusable two-sided search over a fixed vertex set, and
// the extractor that reads its sides. Not safe for concurrent use.
type Search struct {
	Fwd, Bwd Side
	// Cross holds the crossing arcs the last Meet found, in the push
	// orientation of the side that met.
	Cross []graph.Arc
	ends  [2][]graph.V // the crossing arcs' endpoints: where Reverse starts
	*Extractor
}

// NewSearch creates a search whose forward side pushes along out and
// backward side along in: the same adjacency twice for an undirected
// graph, a digraph's out- and in-arcs otherwise.
func NewSearch(out, in graph.Adjacency) *Search {
	n := out.NumVertices()
	s := &Search{Extractor: NewExtractor(n)}
	s.Fwd.WS, s.Bwd.WS = NewWorkspace(n), NewWorkspace(n)
	s.Bwd.backward = true
	s.Bind(out, in)
	return s
}

// Bind points the sides at another graph over the same vertex set.
func (s *Search) Bind(out, in graph.Adjacency) {
	s.Fwd.Push, s.Fwd.pull = out, in
	s.Bwd.Push, s.Bwd.pull = in, out
}

// Reset roots the forward side at u and the backward side at v.
func (s *Search) Reset(u, v graph.V) {
	s.Fwd.reset(u)
	s.Bwd.reset(v)
	s.Cross = s.Cross[:0]
}

// Meet grows the sides until an arc crosses between them, leaving the
// crossing arcs (all of them, or one if first) in Cross, and returns
// the side whose expansion found them and the adjacency entries
// scanned. The side is nil if one ran out, or if none crossed while the
// depth sum stayed below bound (graph.InfDist bounds nothing).
//
//qbs:zeroalloc
func (s *Search) Meet(bound int32, first bool) (*Side, int64) {
	var scanned int64
	for s.Fwd.D+s.Bwd.D < bound && len(s.Fwd.Level(s.Fwd.D)) > 0 && len(s.Bwd.Level(s.Bwd.D)) > 0 {
		side, other := &s.Fwd, &s.Bwd
		if len(side.arena) > len(other.arena) {
			side, other = other, side
		}
		var arcs int64
		last := side.D+1+other.D == bound
		side.arena, s.Cross, arcs = traverse.ExpandMeeting(side.Push, side.WS, other.WS, side.Level(side.D), side.D, side.arena, s.Cross[:0], first, last)
		scanned += arcs
		if len(s.Cross) > 0 {
			return side, scanned
		}
		if last {
			return nil, scanned
		}
		side.off = append(side.off, int32(len(side.arena)))
		side.D++
	}
	return nil, scanned
}

// Reverse appends to out the answer below the crossing arcs met's
// expansion found: the arcs themselves, then everything between their
// endpoints and each side's root. It returns out and the adjacency
// entries scanned.
//
//qbs:zeroalloc
func (s *Search) Reverse(met *Side, out []graph.Arc) ([]graph.Arc, int64) {
	other := &s.Fwd
	if met == other {
		other = &s.Bwd
	}
	xs, ys := s.ends[0][:0], s.ends[1][:0]
	for _, c := range s.Cross {
		out = append(out, met.Arc(c.From, c.To))
		xs, ys = append(xs, c.From), append(ys, c.To)
	}
	s.ends = [2][]graph.V{xs, ys}
	out, nx := s.Extract(met, out, xs)
	out, ny := s.Extract(other, out, ys)
	return out, nx + ny
}
