package traverse

import (
	"math/bits"
	"sync/atomic"

	"qbs/internal/graph"
)

// Default α/β of the direction switch. α compares frontier arc mass
// against the whole graph's (rather than Beamer's expensively tracked
// unexplored remainder) because the QbS searches are bounded and
// bidirectional — they often terminate before a full sweep, so the
// threshold is deliberately conservative.
const (
	DefaultAlpha = 12
	DefaultBeta  = 24
)

// Expander performs direction-optimizing level expansion for a single
// BFS: top-down while the frontier is sparse, bottom-up through the
// dense middle levels. It is a reusable per-goroutine workspace; bind it
// to a traversal with Begin, then call Expand once per level.
//
// All per-vertex state lives in the caller's Workspace, so the Expander
// composes with whatever the searcher put there (including sentinel
// depths such as QbS's removed landmarks: any vertex already Seen in the
// workspace is never re-discovered, whichever direction runs). The
// workspace's visited bitmap is the one both directions use: top-down
// tests and sets single bits of it, bottom-up scans it a word at a time,
// and switching between them costs nothing. Expand stores depth d for
// the frontier it is given and leaves what it discovers unsettled (see
// Workspace).
type Expander struct {
	// Alpha tunes the top-down → bottom-up switch: go bottom-up when
	// frontierDeg·Alpha > |arcs| (and the frontier is at least |V|/Beta
	// vertices). 0 disables bottom-up entirely; negative forces it on
	// every level (used by tests).
	Alpha int64
	// Beta tunes the switch back: return to top-down when
	// |frontier|·Beta < |V|.
	Beta int64

	// Parallelism > 1 expands large levels on that many pool workers
	// (see doc.go "Parallel execution model"); the discovered level
	// sets, distances and arc counts stay bit-identical to the
	// sequential kernel. <= 1 keeps the exact sequential code path.
	Parallelism int
	// ParallelThreshold overrides the minimum level size (frontier
	// vertices top-down, total vertices bottom-up) that engages the
	// pool; 0 means the package defaults. Tests force 1.
	ParallelThreshold int

	// Per-traversal counters, reset by Begin/BeginDirected and read by
	// the searchers into their QueryStats out-param (plain fields: the
	// expander is single-owner, so no atomics on the hot path).
	// ParallelLevels counts levels the pool executed, ParallelChunks the
	// work chunks claimed, ParallelSteals the chunks claimed outside a
	// worker's static share.
	Switches       int64 // top-down ↔ bottom-up direction switches
	WordsSwept     int64 // visited-bitmap words scanned by bottom-up levels
	ParallelLevels int64
	ParallelChunks int64
	ParallelSteals int64

	n        int
	g        graph.Adjacency // push adjacency: frontier → next level
	pull     graph.Adjacency // reverse adjacency for bottom-up parent probes
	deg      []int32         // optional cached degrees; nil falls back to g.Degree
	totalArc int64
	bottomUp bool

	par     expParState // pool buffers, allocated on first parallel level
	running atomic.Bool // guards against concurrent Expand misuse
}

// NewExpander creates an expander for graphs with n vertices.
func NewExpander(n int) *Expander {
	return &Expander{
		Alpha: DefaultAlpha,
		Beta:  DefaultBeta,
		n:     n,
	}
}

// Begin binds the expander to one traversal over g. deg optionally
// supplies a cached degree array (indexed by vertex); pass nil to fall
// back to g.Degree calls. The bitmap is cleared only when the previous
// traversal went dense, so sparse query streams never touch it.
func (e *Expander) Begin(g graph.Adjacency, deg []int32) {
	e.BeginDirected(g, g, deg)
}

// BeginDirected binds the expander to a traversal over an asymmetric
// adjacency pair: top-down levels push along push.Neighbors, while
// bottom-up levels probe a vertex's potential parents via
// pull.Neighbors — which must therefore be the *reverse* adjacency of
// push (a dual-CSR digraph's InView when pushing over its OutView, and
// vice versa). For an undirected graph the two coincide, which is what
// Begin passes. deg caches push degrees.
func (e *Expander) BeginDirected(push, pull graph.Adjacency, deg []int32) {
	e.g = push
	e.pull = pull
	e.deg = deg
	e.totalArc = int64(push.NumArcs())
	e.bottomUp = false
	e.Switches = 0
	e.WordsSwept = 0
	e.ParallelLevels = 0
	e.ParallelChunks = 0
	e.ParallelSteals = 0
}

// Expand grows the BFS by one level. frontier is the depth-d level —
// every vertex of ws that is seen but not yet settled, or the root(s)
// the caller SetDist to d — and is settled at d here; its unseen
// neighbours are marked seen (depth d+1 pending, stored by the next
// Expand), appended to dst and returned. The second result counts
// adjacency entries examined.
func (e *Expander) Expand(ws *Workspace, frontier []graph.V, d int32, dst []graph.V) ([]graph.V, int64) {
	next, _, arcs := e.ExpandMeeting(ws, nil, frontier, d, dst, nil, false)
	return next, arcs
}

// ExpandMeeting is Expand for one side of a bidirectional search: other
// is the opposite side's workspace, and the pass that tests a reached
// vertex y against ws's visited bits tests other's too. A vertex unseen
// here and seen there is a meeting: the arc x→y that reached it (x on
// the frontier, push orientation) is appended to cross, and y does not
// join the level. The call therefore returns EITHER the complete level
// d+1 and no new crossing arc, OR every crossing arc out of the frontier
// and dst at its input length: a level that met is never expanded from,
// so from the first meeting on nothing more is marked or appended. ws
// may be left holding marks of that abandoned level; they carry the
// pending depth d+1 and no reverse walk from depth ≤ d reads them.
//
// Provided the two searches only ever grew through this call, no vertex
// is in both visited sets while no arc has crossed (a vertex the caller
// SetDist in both, such as a removed landmark, is skipped as seen here),
// so every y lies on other's outermost level and the pair's distance is
// d + 1 + other's completed depth.
//
// first lets the call return at the first crossing arc — all a distance
// query needs; the pooled kernels finish the level regardless. A nil
// other is a plain BFS level.
//
//qbs:hotpath
func (e *Expander) ExpandMeeting(ws, other *Workspace, frontier []graph.V, d int32, dst []graph.V, cross []graph.Arc, first bool) ([]graph.V, []graph.Arc, int64) {
	if !e.running.CompareAndSwap(false, true) {
		panic("traverse: Expander used concurrently (one expander per goroutine)")
	}
	defer e.running.Store(false)
	ws.settle(frontier, d)
	switch {
	case e.Alpha < 0:
		if !e.bottomUp {
			e.bottomUp = true
			e.Switches++
		}
	case e.bottomUp:
		if int64(len(frontier))*e.Beta < int64(e.n) {
			e.bottomUp = false
			e.Switches++
		}
	case e.Alpha > 0 && int64(len(frontier))*e.Beta >= int64(e.n):
		// Dense enough to be worth pricing out: compare the arcs a
		// top-down step would scan against the whole arc mass.
		var mf int64
		if e.deg != nil {
			for _, x := range frontier {
				mf += int64(e.deg[x])
			}
		} else {
			for _, x := range frontier {
				mf += int64(e.g.Degree(x))
			}
		}
		if mf*e.Alpha > e.totalArc {
			e.bottomUp = true
			e.Switches++
		}
	}
	if e.bottomUp {
		// The sweep reads every bitmap word, so the next Reset may as
		// well clear them all: nothing is logged from here on.
		ws.seen.touchAll()
		var arcs int64
		if other != nil {
			had := len(cross)
			cross, arcs = e.crossBottomUp(ws, other, d, cross, first)
			if len(cross) > had {
				return dst, cross, arcs
			}
		}
		var n int64
		if workers := parallelWorkers(e.Parallelism, e.ParallelThreshold, minParVertices, e.n); workers > 1 {
			dst, n = e.expandBottomUpParallel(ws, other, frontier, dst, workers)
		} else {
			dst, n = e.expandBottomUp(ws, other, d, dst)
		}
		return dst, cross, arcs + n
	}
	if workers := parallelWorkers(e.Parallelism, e.ParallelThreshold, minParFrontier, len(frontier)); workers > 1 {
		ws.seen.touchAll() // workers cannot share the log
		return e.expandTopDownParallel(ws, other, frontier, dst, cross, workers)
	}
	return e.expandTopDown(ws, other, frontier, dst, cross, first)
}

// expandTopDown is the sequential push sweep over the frontier.
//
//qbs:zeroalloc
//qbs:hotpath
func (e *Expander) expandTopDown(ws, other *Workspace, frontier []graph.V, dst []graph.V, cross []graph.Arc, first bool) ([]graph.V, []graph.Arc, int64) {
	g := e.g
	seen := &ws.seen
	// Without another side the second test reads the bit the first just
	// found clear.
	mine := ws.bitmap()
	theirs := mine
	if other != nil {
		theirs = other.bitmap()
	}
	base, had := len(dst), len(cross)
	var arcs int64
	for _, x := range frontier {
		ns := g.Neighbors(x)
		arcs += int64(len(ns))
		for _, y := range ns {
			w, bit := uint32(y)>>6, uint64(1)<<(uint(y)&63)
			m, t := mine[w], theirs[w]
			if m&bit != 0 {
				continue
			}
			if t&bit != 0 {
				cross = append(cross, graph.Arc{From: x, To: y})
				if first {
					return dst[:base], cross, arcs
				}
				continue
			}
			if len(cross) == had {
				seen.Mark(y)
				dst = append(dst, y)
			}
		}
	}
	if len(cross) > had {
		dst = dst[:base]
	}
	return dst, cross, arcs
}

// crossBottomUp is the meeting half of a bottom-up level: the vertices
// unseen here and seen by the other side are the only ones an arc can
// cross to, and each of them lists all of its depth-d parents — where a
// level vertex stops at its first — because every such arc is part of
// the answer.
//
//qbs:zeroalloc
//qbs:hotpath
func (e *Expander) crossBottomUp(ws, other *Workspace, d int32, cross []graph.Arc, first bool) ([]graph.Arc, int64) {
	g := e.pull
	words := ws.bitmap()
	var arcs int64
	e.WordsSwept += int64(len(words))
	for w, theirs := range other.bitmap() {
		cand := theirs &^ words[w]
		for cand != 0 {
			v := graph.V(w<<6 + bits.TrailingZeros64(cand))
			cand &= cand - 1
			for _, y := range g.Neighbors(v) {
				arcs++
				if ws.settledAt(y, d) {
					cross = append(cross, graph.Arc{From: y, To: v})
					if first {
						return cross, arcs
					}
				}
			}
		}
	}
	return cross, arcs
}

// expandBottomUp scans the unvisited vertices instead of the frontier: a
// vertex joins the next level at the first pull-neighbour (in-neighbour
// w.r.t. the push direction) settled at depth d. This level's own
// discoveries are unsettled, so they never pass for parents. The other
// side's vertices are left out: crossBottomUp found none of them a
// parent.
//
//qbs:zeroalloc
//qbs:hotpath
func (e *Expander) expandBottomUp(ws, other *Workspace, d int32, dst []graph.V) ([]graph.V, int64) {
	g := e.pull
	words := ws.bitmap()
	var theirs []uint64
	if other != nil {
		theirs = other.bitmap()
	}
	var arcs int64
	nw := len(words)
	e.WordsSwept += int64(nw)
	for w := 0; w < nw; w++ {
		unv := ^words[w]
		if theirs != nil {
			unv &^= theirs[w]
		}
		if w == nw-1 && e.n&63 != 0 {
			unv &= 1<<(uint(e.n)&63) - 1
		}
		for unv != 0 {
			v := graph.V(w<<6 + bits.TrailingZeros64(unv))
			unv &= unv - 1
			for _, y := range g.Neighbors(v) {
				arcs++
				if ws.settledAt(y, d) {
					words[w] |= 1 << (uint(v) & 63)
					dst = append(dst, v)
					break
				}
			}
		}
	}
	return dst, arcs
}
