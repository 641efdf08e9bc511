package bfs

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Bidirectional BFS baseline (the paper's search-based baseline Bi-BFS,
// §6.1): a forward search from u over out-arcs and a backward search
// from v over in-arcs expand alternately, always growing the smaller
// visited set, until an arc crosses from one to the other; a reverse
// search then extracts the union of all shortest paths.
//
// The meeting rule is the QbS searcher's (traverse.ExpandMeeting): the
// level that expands side S reports every arc x→y with y unseen by S and
// seen by the other side. Until one exists the two visited sets are
// disjoint, so every such y sits on the other side's outermost level,
// d_G(u, v) = d_S + 1 + d_other, and the crossing arcs are exactly the
// shortest-path arcs over that cut.

// SearchStats reports work counters for a query, used by the §6.5
// traversal ablation (edges traversed by Bi-BFS vs QbS).
type SearchStats struct {
	ArcsScanned     int64 // adjacency entries examined
	VerticesVisited int64 // vertices assigned a depth
}

// BiBFS answers SPG(u, v) with a bidirectional BFS over the full graph.
// It allocates fresh state per call; use a Bidirectional searcher for
// repeated queries.
func BiBFS(g graph.Adjacency, u, v graph.V) *graph.SPG {
	s := NewBidirectional(g)
	spg, _ := s.Query(u, v)
	return spg
}

// biSide is one direction of the baseline search: its arcs, their
// reverse, and its BFS levels — the arena of visited vertices grouped by
// depth that the guided search keeps too, level i =
// arena[levelOff[i]:levelOff[i+1]]. Its size, len(arena), drives side
// selection.
type biSide struct {
	push, pull graph.Adjacency
	ws         *Workspace
	arena      []graph.V
	levelOff   []int32
	d          int32 // completed levels
}

// Bidirectional is a reusable bidirectional-BFS searcher over a fixed
// graph: an undirected one is searched through itself both ways, a
// digraph forward through its out-arcs and backward through its
// in-arcs, and the answer carries the orientation. Not safe for
// concurrent use.
type Bidirectional struct {
	directed bool
	fwd, bwd biSide
	cross    []graph.Arc // crossing arcs, in the expanding side's push orientation
	xs, ys   []graph.V   // their endpoints: the reverse search's starts
	pairs    []graph.Arc
	ext      *Extractor
}

// NewBidirectional creates a searcher for the undirected graph g.
func NewBidirectional(g graph.Adjacency) *Bidirectional { return newBidirectional(g, g, false) }

// NewDirectedBidirectional creates a searcher for the digraph g.
func NewDirectedBidirectional(g *graph.DiGraph) *Bidirectional {
	return newBidirectional(g.OutView(), g.InView(), true)
}

func newBidirectional(out, in graph.Adjacency, directed bool) *Bidirectional {
	n := out.NumVertices()
	return &Bidirectional{
		directed: directed,
		fwd:      biSide{push: out, pull: in, ws: NewWorkspace(n)},
		bwd:      biSide{push: in, pull: out, ws: NewWorkspace(n)},
		ext:      NewExtractor(n),
	}
}

func (s *biSide) reset(root graph.V) {
	s.ws.Reset()
	s.ws.SetDist(root, 0)
	s.arena = append(s.arena[:0], root)
	s.levelOff = append(s.levelOff[:0], 0, 1)
	s.d = 0
}

func (s *biSide) levels() Levels { return Levels{Arena: s.arena, Off: s.levelOff} }

func (s *biSide) frontier() []graph.V { return s.arena[s.levelOff[s.d]:s.levelOff[s.d+1]] }

// run searches u → v and returns the distance (graph.InfDist when
// disconnected) and the answer's arcs as oriented pairs, valid until
// the next run.
func (b *Bidirectional) run(u, v graph.V) (int32, []graph.Arc, SearchStats) {
	stats := SearchStats{VerticesVisited: 2}
	b.fwd.reset(u)
	b.bwd.reset(v)
	for len(b.fwd.frontier()) > 0 && len(b.bwd.frontier()) > 0 {
		// Expand the side with the smaller visited set.
		side, other := &b.fwd, &b.bwd
		if len(side.arena) > len(other.arena) {
			side, other = other, side
		}
		var arcs int64
		side.arena, b.cross, arcs = traverse.ExpandMeeting(side.push, side.ws, other.ws, side.frontier(), side.d, side.arena, b.cross[:0], false, false)
		stats.ArcsScanned += arcs
		if len(b.cross) == 0 {
			stats.VerticesVisited += int64(len(side.arena)) - int64(side.levelOff[side.d+1])
			side.levelOff = append(side.levelOff, int32(len(side.arena)))
			side.d++
			continue
		}
		pairs, xs, ys := b.pairs[:0], b.xs[:0], b.ys[:0]
		flip := side == &b.bwd
		for _, c := range b.cross {
			pairs = append(pairs, orient(c.From, c.To, flip))
			xs, ys = append(xs, c.From), append(ys, c.To)
		}
		pairs, nx := b.ext.Extract(side.push, side.pull, flip, pairs, xs, side.ws, side.levels())
		pairs, ny := b.ext.Extract(other.push, other.pull, !flip, pairs, ys, other.ws, other.levels())
		stats.ArcsScanned += nx + ny
		b.pairs, b.xs, b.ys = pairs, xs, ys
		return side.d + 1 + other.d, pairs, stats
	}
	return graph.InfDist, nil, stats
}

// Query computes SPG(u, v) and work counters.
func (b *Bidirectional) Query(u, v graph.V) (*graph.SPG, SearchStats) {
	spg := graph.NewSPG(u, v)
	if u == v {
		spg.Fill(b.directed, 0, nil)
		return spg, SearchStats{}
	}
	d, pairs, stats := b.run(u, v)
	spg.Fill(b.directed, d, pairs)
	return spg, stats
}
