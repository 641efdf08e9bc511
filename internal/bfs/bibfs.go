package bfs

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Bidirectional BFS baseline (the paper's search-based baseline Bi-BFS,
// §6.1): a forward search from u and a backward search from v expand
// alternately, always growing the smaller visited set, until the
// frontiers meet; a reverse search then extracts the union of all
// shortest paths.
//
// Because searches expand whole levels and the meeting check runs after
// every level, the first non-empty intersection appears exactly when
// d_u + d_v = d_G(u, v), and the meeting vertices with
// depth_u(w) + depth_v(w) = d are precisely the shortest-path vertices at
// the meeting cut.

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

// Bidirectional is a reusable bidirectional-BFS searcher over a fixed
// graph. Each side expands through a direction-optimizing
// traverse.Expander, so the dense middle levels of small-world graphs
// run bottom-up. Not safe for concurrent use.
type Bidirectional struct {
	g              graph.Adjacency
	deg            []int32 // cached degrees when g is a static CSR graph
	fwd, bwd       *Workspace
	fwdExp, bwdExp *traverse.Expander
	// frontier storage, reused across queries
	frontFwd, frontBwd []graph.V
	nextBuf            []graph.V
	meet               []graph.V
	pairs              []graph.Arc
	ext                *Extractor
}

// NewBidirectional creates a searcher for g.
func NewBidirectional(g graph.Adjacency) *Bidirectional {
	n := g.NumVertices()
	b := &Bidirectional{
		g:      g,
		fwd:    NewWorkspace(n),
		bwd:    NewWorkspace(n),
		fwdExp: traverse.NewExpander(n),
		bwdExp: traverse.NewExpander(n),
		ext:    NewExtractor(n),
	}
	if cg, ok := g.(*graph.Graph); ok {
		b.deg = cg.Degrees()
	}
	return b
}

// SetParallelism runs both directions' level expansions on p traverse
// pool workers when a level clears the size threshold; results are
// bit-identical at every setting. 0 (the default) stays sequential.
func (b *Bidirectional) SetParallelism(p int) {
	b.fwdExp.Parallelism = p
	b.bwdExp.Parallelism = p
}

// Query computes SPG(u, v) and work counters.
func (b *Bidirectional) Query(u, v graph.V) (*graph.SPG, SearchStats) {
	var stats SearchStats
	spg := graph.NewSPG(u, v)
	if u == v {
		spg.Dist = 0
		return spg, stats
	}
	g := b.g
	b.fwd.Reset()
	b.bwd.Reset()
	b.fwd.SetDist(u, 0)
	b.bwd.SetDist(v, 0)
	b.fwdExp.Begin(g, b.deg)
	b.bwdExp.Begin(g, b.deg)
	stats.VerticesVisited = 2
	fs := append(b.frontFwd[:0], u)
	bs := append(b.frontBwd[:0], v)
	var du, dv int32
	sizeFwd, sizeBwd := 1, 1 // visited-set sizes drive side selection
	meet := b.meet[:0]

	for len(fs) > 0 && len(bs) > 0 {
		// Expand the side with the smaller visited set.
		if sizeFwd <= sizeBwd {
			fs = b.expand(b.fwdExp, fs, b.fwd, du, &stats)
			du++
			sizeFwd += len(fs)
			meet = b.collectMeeting(fs, b.bwd, meet)
		} else {
			bs = b.expand(b.bwdExp, bs, b.bwd, dv, &stats)
			dv++
			sizeBwd += len(bs)
			meet = b.collectMeeting(bs, b.fwd, meet)
		}
		if len(meet) > 0 {
			break
		}
	}
	b.frontFwd, b.frontBwd, b.meet = fs, bs, meet
	if len(meet) == 0 {
		return spg, stats // disconnected
	}
	d := du + dv
	// Keep only true meeting vertices on shortest paths.
	cut := meet[:0]
	for _, w := range meet {
		if b.fwd.Dist(w)+b.bwd.Dist(w) == d {
			cut = append(cut, w)
		}
	}
	pairs, nf := b.ext.Extract(g, false, b.pairs[:0], cut, b.fwd)
	pairs, nb := b.ext.Extract(g, true, pairs, cut, b.bwd)
	stats.ArcsScanned += nf + nb
	b.pairs = pairs
	spg.Fill(d, pairs)
	return spg, stats
}

// expand grows one BFS level: every vertex in frontier has depth d; its
// unseen neighbours get depth d+1 and form the next frontier. The
// expander picks top-down or bottom-up per level.
func (b *Bidirectional) expand(exp *traverse.Expander, frontier []graph.V, ws *Workspace, d int32, stats *SearchStats) []graph.V {
	next, arcs := exp.Expand(ws, frontier, d, b.nextBuf[:0])
	stats.ArcsScanned += arcs
	stats.VerticesVisited += int64(len(next))
	b.nextBuf = frontier[:0] // recycle the old frontier's backing array
	return next
}

// collectMeeting appends frontier vertices already seen by the other
// side's workspace.
func (b *Bidirectional) collectMeeting(frontier []graph.V, other *Workspace, meet []graph.V) []graph.V {
	for _, w := range frontier {
		if other.Seen(w) {
			meet = append(meet, w)
		}
	}
	return meet
}

// Extractor performs the paper's reverse search with reusable buffers:
// starting from the given vertices, walk the depth levels of one search
// side downward toward its root (depth decreases by exactly 1 per
// step), emitting every DAG arc as an oriented pair.
//
// pull is the side's reverse adjacency — the one its bottom-up
// expansion probes parents through: the in-arcs for a forward search
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

// Extract runs the reverse search from the given vertices, appending
// the arcs to out, and returns out plus the number of adjacency entries
// scanned (for traversal ablations).
func (e *Extractor) Extract(pull graph.Adjacency, flip bool, out []graph.Arc, from []graph.V, ws *Workspace) ([]graph.Arc, int64) {
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
	for len(cur) > 0 {
		next = next[:0]
		for _, x := range cur {
			dx := ws.Dist(x)
			if dx <= 0 {
				continue
			}
			for _, y := range pull.Neighbors(x) {
				arcs++
				if ws.Seen(y) && ws.Dist(y) == dx-1 {
					if flip {
						out = append(out, graph.Arc{From: x, To: y})
					} else {
						out = append(out, graph.Arc{From: y, To: x})
					}
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
