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
// reverse (extraction walks those), and the frontier of its BFS.
type biSide struct {
	push, pull graph.Adjacency
	ws         *Workspace
	root       graph.V
	front      []graph.V
	d          int32 // completed levels
	size       int   // visited-set size, drives side selection
}

// Bidirectional is a reusable bidirectional-BFS searcher over a fixed
// graph: an undirected one is searched through itself both ways, a
// digraph forward through its out-arcs and backward through its
// in-arcs, and the answer carries the orientation. Not safe for
// concurrent use.
type Bidirectional struct {
	directed bool
	fwd, bwd biSide
	nextBuf  []graph.V
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
	s.root = root
	s.ws.Reset()
	s.ws.SetDist(root, 0)
	s.front = append(s.front[:0], root)
	s.d, s.size = 0, 1
}

// run searches u → v and returns the distance (graph.InfDist when
// disconnected) and the answer's arcs as oriented pairs, valid until
// the next run.
func (b *Bidirectional) run(u, v graph.V) (int32, []graph.Arc, SearchStats) {
	stats := SearchStats{VerticesVisited: 2}
	b.fwd.reset(u)
	b.bwd.reset(v)
	for len(b.fwd.front) > 0 && len(b.bwd.front) > 0 {
		// Expand the side with the smaller visited set.
		side, other := &b.fwd, &b.bwd
		if side.size > other.size {
			side, other = other, side
		}
		next, cross, arcs := traverse.ExpandMeeting(side.push, side.ws, other.ws, side.front, side.d, b.nextBuf[:0], b.cross[:0], false)
		stats.ArcsScanned += arcs
		b.cross = cross
		if len(cross) == 0 {
			b.nextBuf = side.front[:0] // recycle the old frontier's backing array
			side.front = next
			side.d++
			side.size += len(next)
			stats.VerticesVisited += int64(len(next))
			continue
		}
		b.nextBuf = next
		pairs, xs, ys := b.pairs[:0], b.xs[:0], b.ys[:0]
		flip := side == &b.bwd
		for _, c := range cross {
			pairs = append(pairs, orient(c.From, c.To, flip))
			xs, ys = append(xs, c.From), append(ys, c.To)
		}
		pairs, nx := b.ext.Extract(side.pull, flip, pairs, xs, side.ws, side.root)
		pairs, ny := b.ext.Extract(other.pull, !flip, pairs, ys, other.ws, other.root)
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

// Extractor performs the paper's reverse search with reusable buffers:
// starting from the given vertices, walk the depth levels of one search
// side downward toward its root (depth decreases by exactly 1 per
// step), emitting every DAG arc as an oriented pair.
//
// pull is the side's reverse adjacency: the in-arcs for a forward search
// over out-arcs, the out-arcs for a backward search over in-arcs, the
// graph itself when undirected. A predecessor y of x is emitted as
// y→x; flip reverses that to x→y, which is what a backward side's
// predecessors are in the graph.
//
// It is shared by the Bi-BFS baselines and the QbS guided search (where
// ws holds depths over the sparsified graph G⁻ — landmarks carry a
// negative sentinel depth and are skipped automatically); a warmed
// extractor keeps the query path allocation-free.
type Extractor struct {
	mark      *traverse.Marks
	cur, next []graph.V
}

// NewExtractor creates an extractor for graphs with n vertices.
func NewExtractor(n int) *Extractor {
	return &Extractor{mark: traverse.NewMarks(n)}
}

// Extract runs the reverse search from the given vertices of the search
// ws holds, rooted at root (its one depth-0 vertex), appending the arcs
// to out, and returns out plus the number of adjacency entries scanned
// (for traversal ablations). The last step scans none: the only
// predecessor a depth-1 vertex can have is the root. The rows of a step
// are requested a block ahead through ws (traverse.RowsAhead).
//
//qbs:zeroalloc
func (e *Extractor) Extract(pull graph.Adjacency, flip bool, out []graph.Arc, from []graph.V, ws *Workspace, root graph.V) ([]graph.Arc, int64) {
	e.mark.Reset()
	var arcs int64
	cur := e.cur[:0]
	for _, w := range from {
		if !e.mark.Seen(w) {
			e.mark.Mark(w)
			cur = append(cur, w)
		}
	}
	next := e.next[:0]
	rows := ws.RowsAhead(pull)
	for len(cur) > 0 {
		next = next[:0]
		// One step's vertices share a depth; the last step scans no rows.
		scans := ws.Dist(cur[0]) > 1
		for i, x := range cur {
			if scans {
				rows.At(cur, i)
			}
			dx := ws.Dist(x)
			if dx <= 0 {
				continue
			}
			if dx == 1 {
				out = append(out, orient(root, x, flip))
				continue
			}
			for _, y := range pull.Neighbors(x) {
				arcs++
				if ws.Seen(y) && ws.Dist(y) == dx-1 {
					out = append(out, orient(y, x, flip))
					if !e.mark.Seen(y) {
						e.mark.Mark(y)
						next = append(next, y)
					}
				}
			}
		}
		cur, next = next, cur
	}
	e.cur, e.next = cur[:0], next[:0]
	return out, arcs
}

// orient returns the arc between predecessor y and x as it lies in the
// graph: y→x, or x→y for a backward side.
func orient(y, x graph.V, flip bool) graph.Arc {
	if flip {
		return graph.Arc{From: x, To: y}
	}
	return graph.Arc{From: y, To: x}
}
