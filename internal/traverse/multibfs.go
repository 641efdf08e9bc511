package traverse

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"qbs/internal/graph"
)

// ErrTooDeep reports that a MultiBFS level exceeded the caller's depth
// limit while some source still had a non-empty frontier.
var ErrTooDeep = errors.New("traverse: BFS depth exceeds limit")

// ErrConcurrentRun reports that Run/RunDirected was entered while a
// previous call on the same engine was still in flight. An engine (and
// its settle state) is single-owner; create one per goroutine.
var ErrConcurrentRun = errors.New("traverse: MultiBFS used concurrently (one engine per goroutine)")

// MaxSources is the most sources one MultiBFS sweep carries: one bit
// per source in a uint64 word.
const MaxSources = 64

// narrowSources is the most sources a sweep carries in uint32 words.
const narrowSources = 32

// Default α/β of the direction switch. α compares frontier arc mass
// against the whole graph's (rather than Beamer's expensively tracked
// unexplored remainder), so the threshold is deliberately conservative.
const (
	DefaultAlpha = 12
	DefaultBeta  = 24
)

// MultiBFS runs up to 64 simultaneous landmark-rooted QL/QN BFS
// layerings (Algorithm 2 of the paper) in one graph sweep, one bit per
// source. A sweep of at most 32 sources keeps its per-vertex bits in
// uint32 words, a wider one in uint64 words. The engine allocates its
// words at its first sweep and holds one width's at a time: its first
// wide sweep drops the uint32 words, and from then on narrow sweeps run
// in the uint64 ones. It is a reusable workspace sized for a fixed
// vertex count; not safe for concurrent use — create one per worker.
type MultiBFS struct {
	// Parallelism > 1 runs large bottom-up levels on that many pool
	// workers (see doc.go "Parallel execution model"). Settle callbacks
	// are then invoked concurrently and must be safe for that; every
	// settle payload is the same at every worker count. <= 1 runs every
	// level on the caller.
	Parallelism int

	// alpha tunes the top-down → bottom-up switch: go bottom-up when
	// frontierDeg·alpha > |arcs| (and the frontier is at least
	// |V|/DefaultBeta vertices). 0 disables bottom-up entirely; negative
	// forces it on every level. DefaultAlpha unless a test sets it.
	alpha int64
	// poolFloor is the fewest vertices a bottom-up level needs to run on
	// the pool. minParVertices unless a test lowers it.
	poolFloor int

	n   int
	w32 *words[uint32] // sweeps of ≤ narrowSources sources, until a wider one
	w64 *words[uint64] // every sweep since the first wider one

	// frontier and next list a level's vertices while it has at most
	// listCap(n) of them; a denser level lives only in its words. Both
	// are allocated by the first sweep and never grow.
	frontier []graph.V // the current level: vertices with curL|curN != 0
	next     []graph.V // the level being settled
	settled  []int     // bottom-up: vertices settled per chunk

	running atomic.Bool // guards against concurrent Run misuse
}

// word is one vertex's bit set in a sweep: bit i stands for source i.
type word interface{ ~uint32 | ~uint64 }

// words are the per-vertex bit sets of a sweep at one width.
type words[W word] struct {
	curL    []W // bit i: v is on source i's QL frontier at this level
	curN    []W // bit i: v is on source i's QN frontier at this level
	nextL   []W // next level, resolved at settle time
	nextN   []W
	visited []W // bit i: source i has reached v
}

func newWords[W word](n int) *words[W] {
	return &words[W]{
		curL:    make([]W, n),
		curN:    make([]W, n),
		nextL:   make([]W, n),
		nextN:   make([]W, n),
		visited: make([]W, n),
	}
}

// NewMultiBFS creates an engine for graphs with n vertices. It holds no
// per-vertex state until its first sweep.
func NewMultiBFS(n int) *MultiBFS {
	return &MultiBFS{alpha: DefaultAlpha, poolFloor: minParVertices, n: n}
}

// listCap is how many vertices a level list holds: a level of at most
// |V|/DefaultBeta vertices never goes bottom-up, the switch back to
// top-down comes below that size, and the roots of a sweep always fit.
func listCap(n int) int { return min(n, n/DefaultBeta+MaxSources) }

// Run sweeps the graph once, advancing a QL/QN BFS from every root in
// lock-step. roots[i] is the root of bit i (all distinct vertices, at
// most MaxSources). landIdx marks the landmark vertices (>= 0); at a
// landmark every arriving bit is absorbed into QN, which is what makes
// the per-bit layering match the scalar Algorithm 2. Pass a nil landIdx
// to treat every vertex as a plain vertex (plain multi-source BFS).
//
// settle is called exactly once per (vertex, level) with the bits that
// first reached the vertex at that level: newL arrived via a QL
// frontier (these are the labelled discoveries — or, at a landmark, the
// meta-edge discoveries), newN arrived only via QN. Roots are not
// settled; the caller accounts for depth 0 itself.
//
// deg is ignored: the α/β switch prices a frontier with g.Degree, and an
// array of degrees beside the words would outweigh the sweep's lists.
// The parameter stays for the callers written against it; pass nil.
// Run returns ErrTooDeep when a level would exceed maxDepth; the engine
// is reusable afterwards.
func (mb *MultiBFS) Run(g graph.Adjacency, deg []int32, landIdx []int16, roots []graph.V, maxDepth int32, settle func(v graph.V, depth int32, newL, newN uint64)) error {
	return mb.RunDirected(g, g, deg, landIdx, roots, maxDepth, settle)
}

// RunDirected is Run over an asymmetric adjacency pair: frontiers push
// along push.Neighbors, while the bottom-up direction pulls a vertex's
// pending bits from pull.Neighbors — which must therefore be the
// *reverse* adjacency of push (a dual-CSR digraph's InView when pushing
// over its OutView, and vice versa). For an undirected graph the two
// coincide, which is what Run passes. deg is ignored, as Run's is.
func (mb *MultiBFS) RunDirected(push, pull graph.Adjacency, _ []int32, landIdx []int16, roots []graph.V, maxDepth int32, settle func(v graph.V, depth int32, newL, newN uint64)) error {
	if !mb.running.CompareAndSwap(false, true) {
		return ErrConcurrentRun
	}
	defer mb.running.Store(false)
	n := push.NumVertices()
	if n != mb.n {
		return fmt.Errorf("traverse: engine sized for %d vertices, graph has %d", mb.n, n)
	}
	if len(roots) == 0 {
		return nil
	}
	if len(roots) > MaxSources {
		return fmt.Errorf("traverse: %d roots exceed the %d-way sweep width", len(roots), MaxSources)
	}
	if mb.frontier == nil {
		mb.frontier = make([]graph.V, 0, listCap(n))
		mb.next = make([]graph.V, 0, listCap(n))
	}
	if len(roots) <= narrowSources && mb.w64 == nil {
		if mb.w32 == nil {
			mb.w32 = newWords[uint32](n)
		}
		return sweep(mb, mb.w32, push, pull, landIdx, roots, maxDepth, settle)
	}
	if mb.w64 == nil {
		mb.w64, mb.w32 = newWords[uint64](n), nil
	}
	return sweep(mb, mb.w64, push, pull, landIdx, roots, maxDepth, settle)
}

// sweep is RunDirected over the words of one width. A level is its
// vertices' words (curL|curN != 0) and its count; while the count is at
// most the lists' capacity, frontier lists the vertices as well.
func sweep[W word](mb *MultiBFS, w *words[W], push, pull graph.Adjacency, landIdx []int16, roots []graph.V, maxDepth int32, settle func(graph.V, int32, uint64, uint64)) error {
	n := mb.n
	full := ^W(0)
	if len(roots) < bits.OnesCount64(uint64(full)) {
		full = W(1)<<uint(len(roots)) - 1
	}
	clear(w.curL)
	clear(w.curN)
	clear(w.nextL)
	clear(w.nextN)
	clear(w.visited)

	frontier := mb.frontier[:0]
	for i, r := range roots {
		if w.visited[r] != 0 {
			return fmt.Errorf("traverse: duplicate root %d", r)
		}
		w.curL[r] = 1 << uint(i)
		w.visited[r] = 1 << uint(i)
		frontier = append(frontier, r)
	}
	count := len(frontier)
	totalArc := int64(push.NumArcs())

	depth := int32(0)
	bottomUp := false
	for count > 0 {
		listed := count <= cap(frontier)
		depth++
		if depth > maxDepth {
			// The words left set are cleared by the next sweep's start.
			mb.frontier = frontier[:0]
			return ErrTooDeep
		}

		switch {
		case mb.alpha < 0:
			bottomUp = true
		case bottomUp:
			bottomUp = int64(count)*DefaultBeta >= int64(n)
		case mb.alpha > 0 && int64(count)*DefaultBeta >= int64(n):
			// Dense enough to price out (sparse levels skip the degree
			// summation entirely). The threshold compares against the
			// whole arc mass — conservative, and it keeps the hot settle
			// path free of per-vertex degree accounting.
			bottomUp = levelDegree(w, push, frontier, listed)*mb.alpha > totalArc
		}

		var nf []graph.V
		if bottomUp {
			workers := 1
			if mb.Parallelism > 1 && n >= mb.poolFloor {
				workers = mb.Parallelism
			}
			nf, count = bottomUpLevel(mb, w, pull, landIdx, settle, depth, full, workers)
		} else {
			nf, count = topDownLevel(mb, w, push, frontier, listed, landIdx, settle, depth)
		}

		clearLevel(w, frontier, listed)
		w.curL, w.nextL = w.nextL, w.curL
		w.curN, w.nextN = w.nextN, w.curN
		mb.frontier, mb.next = nf, frontier[:0]
		frontier = nf
	}
	mb.frontier = frontier[:0]
	return nil
}

// topDownLevel expands the current level along push: it accumulates the
// frontier's bits into the next-level words, then settles every vertex
// they reached. nextL/nextN double as the accumulators; settleVertex
// rewrites them with the resolved QL/QN assignment. An arc counts only if
// it brings a bit v has not seen, so every vertex reached has one to
// settle. It returns the level reached and its count, listed in mb.next
// when it fits; a level that overflows the list is settled by a scan of
// the next-level words.
func topDownLevel[W word](mb *MultiBFS, w *words[W], push graph.Adjacency, frontier []graph.V, listed bool, landIdx []int16, settle func(graph.V, int32, uint64, uint64), depth int32) ([]graph.V, int) {
	nf := mb.next[:cap(mb.next)]
	count := 0
	if listed {
		for _, u := range frontier {
			count = pushRow(w, push, u, nf, count)
		}
	} else {
		for u := range w.curL {
			if w.curL[u]|w.curN[u] != 0 {
				count = pushRow(w, push, graph.V(u), nf, count)
			}
		}
	}
	if count <= len(nf) {
		nf = nf[:count]
		for _, v := range nf {
			settleVertex(w, v, depth, w.nextL[v], w.nextN[v], landIdx, settle)
		}
		return nf, count
	}
	for v := range w.nextL {
		if aL, aN := w.nextL[v], w.nextN[v]; aL|aN != 0 {
			settleVertex(w, graph.V(v), depth, aL, aN, landIdx, settle)
		}
	}
	return nf[:0], count
}

// pushRow ORs u's frontier bits into the next-level words of its
// neighbours along push. count is how many vertices the level has
// reached so far, the first len(nf) of them listed in nf; it returns the
// new count.
func pushRow[W word](w *words[W], push graph.Adjacency, u graph.V, nf []graph.V, count int) int {
	lu, ln := w.curL[u], w.curN[u]
	both := lu | ln
	for _, v := range push.Neighbors(u) {
		if both&^w.visited[v] == 0 {
			continue
		}
		if w.nextL[v]|w.nextN[v] == 0 {
			if count < len(nf) {
				nf[count] = v
			}
			count++
		}
		w.nextL[v] |= lu
		w.nextN[v] |= ln
	}
	return count
}

// levelDegree sums push's degree over the current level: the arcs a
// top-down step from it would scan.
func levelDegree[W word](w *words[W], push graph.Adjacency, frontier []graph.V, listed bool) int64 {
	var mf int64
	if listed {
		for _, x := range frontier {
			mf += int64(push.Degree(x))
		}
		return mf
	}
	for x := range w.curL {
		if w.curL[x]|w.curN[x] != 0 {
			mf += int64(push.Degree(graph.V(x)))
		}
	}
	return mf
}

// clearLevel zeroes the current level's words: vertex by vertex when the
// level is listed, wholesale when it was too dense to list.
func clearLevel[W word](w *words[W], frontier []graph.V, listed bool) {
	if !listed {
		clear(w.curL)
		clear(w.curN)
		return
	}
	for _, u := range frontier {
		w.curL[u], w.curN[u] = 0, 0
	}
}

// settleVertex resolves the bits newly arrived at v on this level (at
// least one of aL|aN is not yet in v's visited word) and installs its
// next-level frontier words. Per bit: arrived via QL → QL (labelled);
// arrived only via QN → QN; at a landmark everything is absorbed into
// QN. It writes only v's own words, so bottom-up workers settle the
// vertices of their own chunks without synchronising.
//
//qbs:zeroalloc
func settleVertex[W word](w *words[W], v graph.V, depth int32, aL, aN W, landIdx []int16, settle func(graph.V, int32, uint64, uint64)) {
	vis := w.visited[v]
	fromL := aL &^ vis
	newBits := (aL | aN) &^ vis
	fromN := newBits &^ fromL
	w.visited[v] = vis | newBits
	if landIdx != nil && landIdx[v] >= 0 {
		w.nextL[v], w.nextN[v] = 0, newBits
	} else {
		w.nextL[v], w.nextN[v] = fromL, fromN
	}
	settle(v, depth, uint64(fromL), uint64(fromN))
}
