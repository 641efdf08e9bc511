package bfs

import "qbs/internal/graph"

// Bidirectional BFS baseline (the paper's search-based baseline Bi-BFS,
// §6.1): the two-sided search (Search) over the full graph with no
// bound, then the reverse search that extracts the union of all
// shortest paths.

// SearchStats reports work counters for a query, used by the §6.5
// traversal ablation (edges traversed by Bi-BFS vs QbS).
type SearchStats struct {
	ArcsScanned int64 // adjacency entries examined
}

// BiBFS answers SPG(u, v) with a bidirectional BFS over the full graph.
// It allocates fresh state per call; use a Bidirectional searcher for
// repeated queries.
func BiBFS(g *graph.Graph, u, v graph.V) *graph.SPG {
	s := NewBidirectional(g)
	spg, _ := s.Query(u, v)
	return spg
}

// Bidirectional is a reusable bidirectional-BFS searcher over a fixed
// graph: an undirected one is searched through itself both ways, a
// digraph forward through its out-arcs and backward through its
// in-arcs, and the answer carries the orientation. Not safe for
// concurrent use.
type Bidirectional struct {
	directed bool
	s        *Search
	pairs    []graph.Arc
}

// NewBidirectional creates a searcher for g, of either orientation.
func NewBidirectional(g *graph.Graph) *Bidirectional {
	return &Bidirectional{directed: g.Directed(), s: NewSearch(g.OutView(), g.InView())}
}

// run searches u → v and returns the distance (graph.InfDist when
// disconnected) and the answer's arcs as oriented pairs, valid until
// the next run.
func (b *Bidirectional) run(u, v graph.V) (int32, []graph.Arc, SearchStats) {
	b.s.Reset(u, v)
	met, arcs := b.s.Meet(graph.InfDist, false)
	stats := SearchStats{ArcsScanned: arcs}
	if met == nil {
		return graph.InfDist, nil, stats
	}
	b.pairs, arcs = b.s.Reverse(met, b.pairs[:0])
	stats.ArcsScanned += arcs
	return b.s.Fwd.D + 1 + b.s.Bwd.D, b.pairs, stats
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
