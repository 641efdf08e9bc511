// Package dynamic adds live updates to the QbS index. The maintained
// index is the static index (internal/core) plus a writer:
//
//   - Built by core: the one full build, epoch 0, is
//     core.Shell.BuildMaintained over the overlay, the same labelling
//     sweep, meta state and Δ recovery as core.Build, which also writes
//     the plain BFS distance columns repair needs; every published epoch
//     is core.Shell.Index, the index's one shell (landmarks and their
//     reverse map, validated once) around that epoch's adjacency, label
//     columns, meta state and Δ; every query goes through the embedded
//     core.Reader, the read path all index kinds share, resolving to the
//     current epoch's index.
//   - Repaired here: an overlay graph that absorbs edge insertions and
//     deletions without rebuilding the CSR (overlay.go), incremental
//     repair of the landmark labelling after each update (repair.go; its
//     budget fallback, one landmark's column redone, is core's sweep at
//     width 1), Δ lists recomputed for the landmark pairs an update
//     dirtied (delta.go), and epoch-based snapshots so readers answer
//     lock-free against an immutable view while writers advance the state
//     (dynamic.go). Repair must leave exactly what a full build would —
//     the labelling is a function of the graph and the landmark set
//     (Lemma 5.2) — and the tests hold every epoch to that. The same
//     lemma makes compaction a fold: the overlay is flattened into a
//     fresh CSR base and every label, σ and Δ is kept.
//
// The design leans on two observations. First, QbS labels are just |R|
// landmark-rooted BFS layerings, so a single edge update perturbs them
// only around the changed edge: an insertion can only decrease distances
// (repaired by a decrease-only BFS from the endpoints), and a deletion
// invalidates exactly the vertices whose every shortest-path parent is
// invalidated (repaired by affected-vertex detection plus a bounded
// re-BFS). Second, the searcher only needs neighbour iteration, so the
// graph can be an immutable CSR base plus per-vertex adjacency deltas —
// mutated vertices get a private merged list, untouched vertices read
// straight from the base.
package dynamic

import (
	"sort"

	"qbs/internal/graph"
)

// Overlay is an immutable view of a mutable graph: a CSR base plus
// copy-on-write per-vertex adjacency overrides. WithEdge/WithoutEdge
// return a new Overlay sharing all untouched state with the receiver, so
// readers holding an old Overlay never observe a mutation.
//
// Overlay implements graph.Adjacency.
type Overlay struct {
	base    *graph.Graph
	touched []uint64 // bit v => over[v] overrides base adjacency
	over    map[graph.V][]graph.V
	edges   int // undirected edge count of the overlaid graph
}

// NewOverlay wraps a CSR base with an empty delta.
func NewOverlay(base *graph.Graph) *Overlay {
	return &Overlay{
		base:    base,
		touched: make([]uint64, (base.NumVertices()+63)/64),
		over:    map[graph.V][]graph.V{},
		edges:   base.NumEdges(),
	}
}

// NumVertices returns |V| (fixed: the overlay does not add vertices).
func (o *Overlay) NumVertices() int { return o.base.NumVertices() }

// NumEdges returns the current undirected edge count.
func (o *Overlay) NumEdges() int { return o.edges }

// NumArcs returns 2·|E|.
func (o *Overlay) NumArcs() int { return 2 * o.edges }

// Overridden returns the number of vertices whose adjacency diverged
// from the base — the compaction-pressure signal.
func (o *Overlay) Overridden() int { return len(o.over) }

func (o *Overlay) isTouched(v graph.V) bool {
	return o.touched[v>>6]&(1<<(uint(v)&63)) != 0
}

// Neighbors returns the sorted neighbour list of v. The hot path pays
// one bitmap probe over the base CSR lookup.
func (o *Overlay) Neighbors(v graph.V) []graph.V {
	if o.isTouched(v) {
		return o.over[v]
	}
	return o.base.Neighbors(v)
}

// Degree returns the number of neighbours of v.
func (o *Overlay) Degree(v graph.V) int { return len(o.Neighbors(v)) }

// HasEdge reports whether the undirected edge {u, w} exists.
func (o *Overlay) HasEdge(u, w graph.V) bool {
	if u == w {
		return false
	}
	ns := o.Neighbors(u)
	if ms := o.Neighbors(w); len(ms) < len(ns) {
		ns, w = ms, u
	}
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= w })
	return i < len(ns) && ns[i] == w
}

// clone shares the base and copies the delta bookkeeping. The copy is
// O(overridden vertices) — this is what compaction bounds: once drift
// passes the threshold the overlay is folded into a fresh CSR base and
// the copy shrinks to nothing again. Every tier folds at the same logged
// epochs, so a replica's copy is bounded as the primary's is.
func (o *Overlay) clone() *Overlay {
	c := &Overlay{
		base:    o.base,
		touched: make([]uint64, len(o.touched)),
		over:    make(map[graph.V][]graph.V, len(o.over)+2),
		edges:   o.edges,
	}
	copy(c.touched, o.touched)
	for v, ns := range o.over {
		c.over[v] = ns
	}
	return c
}

// setNeighbors installs a private adjacency list for v.
func (o *Overlay) setNeighbors(v graph.V, ns []graph.V) {
	o.touched[v>>6] |= 1 << (uint(v) & 63)
	o.over[v] = ns
}

// WithEdge returns a new Overlay with the undirected edge {u, w} added.
// The receiver is unchanged. Callers must ensure the edge is absent and
// u != w.
func (o *Overlay) WithEdge(u, w graph.V) *Overlay {
	c := o.clone()
	c.setNeighbors(u, insertSorted(c.Neighbors(u), w))
	c.setNeighbors(w, insertSorted(c.Neighbors(w), u))
	c.edges++
	return c
}

// WithoutEdge returns a new Overlay with the undirected edge {u, w}
// removed. The receiver is unchanged. Callers must ensure the edge
// exists.
func (o *Overlay) WithoutEdge(u, w graph.V) *Overlay {
	c := o.clone()
	c.setNeighbors(u, removeSorted(c.Neighbors(u), w))
	c.setNeighbors(w, removeSorted(c.Neighbors(w), u))
	c.edges--
	return c
}

// Materialize flattens the overlay into a fresh CSR graph: the new base
// of a compaction fold, a snapshot's graph, and the ground truth of
// tests. It is O(|V| + |E|).
func (o *Overlay) Materialize() *graph.Graph {
	b := graph.NewBuilder(o.NumVertices())
	for v := graph.V(0); v < graph.V(o.NumVertices()); v++ {
		for _, w := range o.Neighbors(v) {
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.MustBuild()
}

// insertSorted returns a fresh sorted slice with w inserted.
func insertSorted(ns []graph.V, w graph.V) []graph.V {
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= w })
	out := make([]graph.V, 0, len(ns)+1)
	out = append(out, ns[:i]...)
	out = append(out, w)
	return append(out, ns[i:]...)
}

// removeSorted returns a fresh sorted slice with w removed.
func removeSorted(ns []graph.V, w graph.V) []graph.V {
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= w })
	out := make([]graph.V, 0, len(ns)-1)
	out = append(out, ns[:i]...)
	return append(out, ns[i+1:]...)
}

var _ graph.Adjacency = (*Overlay)(nil)
