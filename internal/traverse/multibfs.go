package traverse

import (
	"errors"
	"fmt"
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

// MaxSources is the number of sources one MultiBFS sweep carries: one
// bit per source in a uint64 word.
const MaxSources = 64

// Default α/β of the direction switch. α compares frontier arc mass
// against the whole graph's (rather than Beamer's expensively tracked
// unexplored remainder), so the threshold is deliberately conservative.
const (
	DefaultAlpha = 12
	DefaultBeta  = 24
)

// MultiBFS runs up to 64 simultaneous landmark-rooted QL/QN BFS
// layerings (Algorithm 2 of the paper) in one graph sweep, one bit per
// source. It is a reusable workspace sized for a fixed vertex count; not
// safe for concurrent use — create one per worker.
type MultiBFS struct {
	// Alpha tunes the top-down → bottom-up switch: go bottom-up when
	// frontierDeg·Alpha > |arcs| (and the frontier is at least |V|/Beta
	// vertices). 0 disables bottom-up entirely; negative forces it on
	// every level (used by tests).
	Alpha int64
	// Beta tunes the switch back: return to top-down when
	// |frontier|·Beta < |V|.
	Beta int64

	// Parallelism > 1 runs large levels on that many pool workers (see
	// doc.go "Parallel execution model"). Settle callbacks are then
	// invoked concurrently and must be safe for that; every settle
	// payload stays bit-identical to the sequential kernel. <= 1 keeps
	// the exact sequential code path.
	Parallelism int
	// ParallelThreshold overrides the minimum level size (frontier
	// vertices top-down, total vertices bottom-up) that engages the
	// pool; 0 means the package defaults. Tests force 1.
	ParallelThreshold int

	// Per-run counters, reset by Run/RunDirected (plain fields; the
	// engine is single-owner). WordsSwept counts visited words probed by
	// bottom-up levels — one per vertex scanned. ParallelLevels counts
	// levels the pool executed, ParallelChunks the work chunks claimed,
	// ParallelSteals the chunks claimed outside a worker's static share.
	Switches       int64
	WordsSwept     int64
	ParallelLevels int64
	ParallelChunks int64
	ParallelSteals int64

	n       int
	curL    []uint64 // bit i: v is on source i's QL frontier at this level
	curN    []uint64 // bit i: v is on source i's QN frontier at this level
	nextL   []uint64 // next level, resolved at settle time
	nextN   []uint64
	visited []uint64 // bit i: source i has reached v

	frontier []graph.V // vertices with curL|curN != 0, each once
	next     []graph.V
	touched  []graph.V // top-down: vertices with pending next-level bits

	par     mbParState  // pool buffers, allocated on first parallel level
	running atomic.Bool // guards against concurrent Run misuse
}

// NewMultiBFS creates an engine for graphs with n vertices.
func NewMultiBFS(n int) *MultiBFS {
	return &MultiBFS{
		Alpha:   DefaultAlpha,
		Beta:    DefaultBeta,
		n:       n,
		curL:    make([]uint64, n),
		curN:    make([]uint64, n),
		nextL:   make([]uint64, n),
		nextN:   make([]uint64, n),
		visited: make([]uint64, n),
	}
}

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
// deg optionally supplies cached degrees for the α/β switch; nil falls
// back to g.Degree. Run returns ErrTooDeep when a level would exceed
// maxDepth; the engine is reusable afterwards.
func (mb *MultiBFS) Run(g graph.Adjacency, deg []int32, landIdx []int16, roots []graph.V, maxDepth int32, settle func(v graph.V, depth int32, newL, newN uint64)) error {
	return mb.RunDirected(g, g, deg, landIdx, roots, maxDepth, settle)
}

// RunDirected is Run over an asymmetric adjacency pair: frontiers push
// along push.Neighbors, while the bottom-up direction pulls a vertex's
// pending bits from pull.Neighbors — which must therefore be the
// *reverse* adjacency of push (a dual-CSR digraph's InView when pushing
// over its OutView, and vice versa). For an undirected graph the two
// coincide, which is what Run passes.
//
// nextL/nextN are OR-accumulated with CAS only inside parallel levels;
// the sequential kernel and the swap between levels run single-threaded.
func (mb *MultiBFS) RunDirected(push, pull graph.Adjacency, deg []int32, landIdx []int16, roots []graph.V, maxDepth int32, settle func(v graph.V, depth int32, newL, newN uint64)) error {
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
	full := ^uint64(0)
	if len(roots) < MaxSources {
		full = 1<<uint(len(roots)) - 1
	}
	clear(mb.curL)
	clear(mb.curN)
	clear(mb.nextL)
	clear(mb.nextN)
	clear(mb.visited)
	mb.Switches = 0
	mb.WordsSwept = 0
	mb.ParallelLevels = 0
	mb.ParallelChunks = 0
	mb.ParallelSteals = 0

	degree := func(v graph.V) int64 {
		if deg != nil {
			return int64(deg[v])
		}
		return int64(push.Degree(v))
	}

	frontier := mb.frontier[:0]
	for i, r := range roots {
		if mb.visited[r] != 0 {
			return fmt.Errorf("traverse: duplicate root %d", r)
		}
		mb.curL[r] = 1 << uint(i)
		mb.visited[r] = 1 << uint(i)
		frontier = append(frontier, r)
	}
	totalArc := int64(push.NumArcs())

	depth := int32(0)
	bottomUp := false
	for len(frontier) > 0 {
		depth++
		if depth > maxDepth {
			// Leave the engine clean for reuse.
			for _, u := range frontier {
				mb.curL[u], mb.curN[u] = 0, 0
			}
			mb.frontier, mb.next = frontier[:0], mb.next[:0]
			return ErrTooDeep
		}

		switch {
		case mb.Alpha < 0:
			if !bottomUp {
				bottomUp = true
				mb.Switches++
			}
		case bottomUp:
			if int64(len(frontier))*mb.Beta < int64(n) {
				bottomUp = false
				mb.Switches++
			}
		case mb.Alpha > 0 && int64(len(frontier))*mb.Beta >= int64(n):
			// Dense enough to price out (sparse levels skip the degree
			// summation entirely). The threshold compares against the
			// whole arc mass — conservative, and it keeps the hot settle
			// path free of per-vertex degree accounting.
			var mf int64
			for _, x := range frontier {
				mf += degree(x)
			}
			if mf*mb.Alpha > totalArc {
				bottomUp = true
				mb.Switches++
			}
		}

		nf := mb.next[:0]
		if bottomUp {
			mb.WordsSwept += int64(n)
			if workers := parallelWorkers(mb.Parallelism, mb.ParallelThreshold, minParVertices, n); workers > 1 {
				nf = mb.bottomUpParallel(pull, landIdx, settle, depth, full, workers, nf)
			} else {
				// Bottom-up: scan vertices some source has not reached and pull
				// frontier bits from their neighbours. Settling immediately is
				// safe — it writes only v's own visited/next words, while the
				// scan reads neighbours' cur words, which this level never
				// mutates.
				for v := graph.V(0); int(v) < n; v++ {
					vis := mb.visited[v]
					if vis == full {
						continue
					}
					var aL, aN uint64
					for _, u := range pull.Neighbors(v) {
						aL |= mb.curL[u]
						aN |= mb.curN[u]
						if aL|vis == full {
							// Every source is already visited or arriving via QL;
							// later neighbours cannot change any bit's QL-priority
							// classification, so stop probing.
							break
						}
					}
					if (aL|aN)&^vis == 0 {
						continue
					}
					nf = mb.settleVertex(v, depth, aL, aN, landIdx, settle, nf)
				}
			}
		} else if workers := parallelWorkers(mb.Parallelism, mb.ParallelThreshold, minParFrontier, len(frontier)); workers > 1 {
			nf = mb.topDownParallel(push, landIdx, settle, frontier, depth, workers, nf)
		} else {
			// Top-down: accumulate frontier bits into the next-level words,
			// then settle every touched vertex. nextL/nextN double as the
			// accumulators; settleVertex rewrites them with the resolved
			// QL/QN assignment.
			touched := mb.touched[:0]
			for _, u := range frontier {
				lu, ln := mb.curL[u], mb.curN[u]
				both := lu | ln
				for _, v := range push.Neighbors(u) {
					if both&^mb.visited[v] == 0 {
						continue
					}
					if mb.nextL[v]|mb.nextN[v] == 0 {
						touched = append(touched, v)
					}
					mb.nextL[v] |= lu
					mb.nextN[v] |= ln
				}
			}
			for _, v := range touched {
				aL, aN := mb.nextL[v], mb.nextN[v]
				nf = mb.settleVertex(v, depth, aL, aN, landIdx, settle, nf)
			}
			mb.touched = touched[:0]
		}

		for _, u := range frontier {
			mb.curL[u], mb.curN[u] = 0, 0
		}
		mb.curL, mb.nextL = mb.nextL, mb.curL
		mb.curN, mb.nextN = mb.nextN, mb.curN
		mb.frontier, mb.next = nf, frontier[:0]
		frontier = nf
	}
	mb.frontier = frontier[:0]
	return nil
}

// settleVertex resolves one vertex's newly arrived bits at this level
// and installs its next-level frontier words. Per bit: arrived via QL →
// QL (labelled); arrived only via QN → QN; at a landmark everything is
// absorbed into QN. Settles run after the level barrier, and each
// worker touches only the words of the vertex it claimed.
//
//qbs:zeroalloc
func (mb *MultiBFS) settleVertex(v graph.V, depth int32, aL, aN uint64, landIdx []int16, settle func(graph.V, int32, uint64, uint64), nf []graph.V) []graph.V {
	vis := mb.visited[v]
	fromL := aL &^ vis
	newBits := (aL | aN) &^ vis
	if newBits == 0 {
		mb.nextL[v], mb.nextN[v] = 0, 0
		return nf
	}
	fromN := newBits &^ fromL
	mb.visited[v] = vis | newBits
	if landIdx != nil && landIdx[v] >= 0 {
		mb.nextL[v], mb.nextN[v] = 0, newBits
	} else {
		mb.nextL[v], mb.nextN[v] = fromL, fromN
	}
	settle(v, depth, fromL, fromN)
	return append(nf, v)
}
