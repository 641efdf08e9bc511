package traverse

import (
	"math"

	"qbs/internal/graph"
)

// Infinity marks an unreached vertex in distance arrays.
const Infinity = int32(math.MaxInt32)

// Marks is a resettable set of vertices: one bit per vertex, so the
// whole set of a 400 000-vertex graph is 50 KB and membership tests stay
// in L1/L2. Reset costs what the traversal touched, not |V|: the word
// index of every Mark is logged, and once the log holds as many entries
// as the bitmap has words a single clear is cheaper and the log stops
// growing. Not safe for concurrent use; create one per goroutine.
type Marks struct {
	words   []uint64
	touched []uint32 // word index per Mark since Reset; full = clear everything
}

// NewMarks creates an empty set over n vertices. The log is sized once,
// at its cap, so marking never allocates.
func NewMarks(n int) *Marks {
	m := newMarks(n)
	return &m
}

func newMarks(n int) Marks {
	nw := (n + 63) / 64
	return Marks{words: make([]uint64, nw), touched: make([]uint32, 0, nw)}
}

// Reset empties the set in O(min(marks, words)).
//
//qbs:zeroalloc
func (m *Marks) Reset() {
	if m.full() {
		clear(m.words)
	} else {
		for _, w := range m.touched {
			m.words[w] = 0
		}
	}
	m.touched = m.touched[:0]
}

// full reports whether the log has stopped recording.
func (m *Marks) full() bool { return len(m.touched) == cap(m.touched) }

// Seen reports whether v is in the set.
//
//qbs:zeroalloc
func (m *Marks) Seen(v graph.V) bool {
	return m.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// Mark adds v to the set.
//
//qbs:zeroalloc
func (m *Marks) Mark(v graph.V) {
	w := uint32(v) >> 6
	m.words[w] |= 1 << (uint(v) & 63)
	if len(m.touched) < cap(m.touched) {
		m.touched = append(m.touched, w)
	}
}

// unmark takes back the latest marks: vs is every vertex marked since the
// log held logged entries. Their words were either logged before, by an
// older mark, or are zero again, so the shortened log still names every
// non-zero word (or is full, as it was).
func (m *Marks) unmark(vs []graph.V, logged int) {
	for _, v := range vs {
		m.words[uint32(v)>>6] &^= 1 << (uint(v) & 63)
	}
	m.touched = m.touched[:logged]
}

// Workspace holds reusable per-query BFS state for a fixed graph size:
// the visited set, and a depth per vertex that is stored when the
// vertex's level is expanded *from*, not when the vertex is discovered.
// A vertex is therefore in one of three states:
//
//	unseen               Seen false, Dist Infinity
//	seen, unsettled      discovered by the latest expansion; no depth stored,
//	                     Dist answers the pending depth (all such
//	                     vertices share it: they are one BFS level)
//	settled              depth in dist — by the expansion that used the
//	                     vertex as frontier, or by an explicit SetDist
//
// so the last and largest level of a search never costs a random
// per-vertex store. Reset is O(touched), like Marks. A Workspace is not
// safe for concurrent use; create one per goroutine.
type Workspace struct {
	seen    Marks
	settled []uint64 // bit per vertex: dist[v] is valid; cleared with seen
	dist    []int32
	pending int32   // depth of every seen-but-unsettled vertex
	sink    graph.V // sum of what RowsAhead loaded, kept so the loads are not dead code
}

// NewWorkspace creates a workspace for graphs with n vertices.
func NewWorkspace(n int) *Workspace {
	return &Workspace{
		seen:    newMarks(n),
		settled: make([]uint64, (n+63)/64),
		dist:    make([]int32, n),
	}
}

// Reset forgets every vertex in O(min(vertices seen, |V|/64)).
//
//qbs:zeroalloc
func (ws *Workspace) Reset() {
	// settled ⊆ seen, so seen's log covers both bitmaps.
	if ws.seen.full() {
		clear(ws.settled)
	} else {
		for _, w := range ws.seen.touched {
			ws.settled[w] = 0
		}
	}
	ws.seen.Reset()
}

// Dist returns the depth of v, or Infinity if v is unseen.
//
//qbs:zeroalloc
func (ws *Workspace) Dist(v graph.V) int32 {
	if !ws.seen.Seen(v) {
		return Infinity
	}
	if ws.settled[v>>6]&(1<<(uint(v)&63)) == 0 {
		return ws.pending
	}
	return ws.dist[v]
}

// SetDist marks v seen and settled at depth d (any value: the searchers
// pre-set removed landmarks to -1 so no level ever matches them).
//
//qbs:zeroalloc
func (ws *Workspace) SetDist(v graph.V, d int32) {
	ws.seen.Mark(v)
	ws.settled[v>>6] |= 1 << (uint(v) & 63)
	ws.dist[v] = d
}

// Seen reports whether v has been discovered since the last Reset.
//
//qbs:zeroalloc
func (ws *Workspace) Seen(v graph.V) bool { return ws.seen.Seen(v) }

// settle stores depth d for the frontier about to be expanded and makes
// d+1 the pending depth of whatever that expansion discovers. frontier
// must be every seen-but-unsettled vertex (the searchers pass exactly
// the previous ExpandMeeting's result), or the rest would be re-labelled d+1.
//
//qbs:zeroalloc
//qbs:hotpath
func (ws *Workspace) settle(frontier []graph.V, d int32) {
	for _, x := range frontier {
		ws.settled[x>>6] |= 1 << (uint(x) & 63)
		ws.dist[x] = d
	}
	ws.pending = d + 1
}

const (
	// rowBlock is how many rows RowsAhead requests at a time: enough
	// misses in flight to fill a core's line-fill buffers, few enough that
	// the rows (a cache line or a few each) are still in L1 when scanned.
	rowBlock = 16
	// lineEntries is the number of vertex ids in a 64-byte cache line.
	lineEntries = 16
	// residentArcs is the adjacency size below which RowsAhead does
	// nothing: half a megabyte of rows sits in L2 with its offsets and the
	// search state beside it, and a load that hits costs less than asking
	// for it twice.
	residentArcs = 1 << 17
	// geometric is the growth a search must have kept up, in frontier
	// rows per level up to the one at hand, for ExpandMeeting to sweep
	// that level twice.
	geometric = 16
)

// RowsAhead requests the rows of one adjacency a block ahead of the loop
// that scans them, on behalf of the workspace's owner. Whether it does
// anything is decided once, from the size of the adjacency.
type RowsAhead struct {
	ws  *Workspace
	adj graph.Adjacency
	on  bool
}

// RowsAhead returns the requester for loops over adj.
func (ws *Workspace) RowsAhead(adj graph.Adjacency) RowsAhead {
	return RowsAhead{ws: ws, adj: adj, on: adj.NumArcs() >= residentArcs}
}

// At is called with every index of a loop about to scan the rows
// adj.Neighbors(xs[i]) in order. Every rowBlock-th call loads one entry
// per cache line of the next rowBlock rows, so that their misses — the
// offset pair, then the row — are outstanding together instead of each
// being waited for behind the scan of the row before. Go has no prefetch
// intrinsic; these are real loads, summed into the workspace so the
// compiler keeps them.
//
//qbs:zeroalloc
//qbs:hotpath
func (r RowsAhead) At(xs []graph.V, i int) {
	if r.on && i%rowBlock == 0 {
		r.load(xs[i:])
	}
}

// load loads the first block of rest, which is what remains to be
// scanned. One row has nothing to overlap with.
//
//qbs:zeroalloc
//qbs:hotpath
func (r RowsAhead) load(rest []graph.V) {
	if len(rest) < 2 {
		return
	}
	var s graph.V
	for _, x := range rest[:min(rowBlock, len(rest))] {
		ns := r.adj.Neighbors(x)
		for k := 0; k < len(ns); k += lineEntries {
			s += ns[k]
		}
	}
	r.ws.sink += s
}
