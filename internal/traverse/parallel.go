package traverse

import (
	"sync"
	"sync/atomic"

	"qbs/internal/graph"
)

// Worker-pool plumbing of the parallel MultiBFS level kernels. See doc.go
// "Parallel execution model" for the design and the memory-ordering
// argument.

const (
	// parChunk is the number of frontier slots (top-down) or vertices
	// (bottom-up) in one claimed work chunk. A multiple of 64 so
	// bottom-up ranges cover whole visited-bitmap words, and — at 8
	// bytes per per-vertex MultiBFS word — so chunk boundaries land on
	// cache-line boundaries: two workers never write the same line.
	parChunk = 1024

	// minParFrontier and minParVertices gate the pool: a top-down level
	// with fewer frontier vertices, or a bottom-up sweep over fewer
	// total vertices, runs the sequential kernel — below these sizes
	// the goroutine fan-out costs more than the level. Overridable via
	// MultiBFS.ParallelThreshold (tests force 1).
	minParFrontier = 2048
	minParVertices = 4096
)

// parRun executes body(w) for w in [0, workers): workers-1 goroutines
// plus the calling goroutine, returning when all complete. Spawned once
// per level phase; the WaitGroup gives every cross-level memory access
// a happens-before edge through the coordinating goroutine.
func parRun(workers int, body func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	body(0)
	wg.Wait()
}

// orUint64 atomically ORs bits into *p. Emulates Go 1.23's
// atomic.OrUint64 with a CAS loop (go.mod pins 1.22); the early return
// skips the CAS once every bit is already present, which is the common
// case when many frontier vertices share a target.
func orUint64(p *uint64, bits uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old|bits == old {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|bits) {
			return
		}
	}
}

// claimUint32 CASes *p from its current value to gen, returning true
// for exactly one caller per gen. The claim winner owns the vertex for
// the rest of the level (its settle, its next-frontier slot).
func claimUint32(p *uint32, gen uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if old == gen {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, gen) {
			return true
		}
	}
}

// chunkCounters aggregates per-phase pool telemetry: chunks claimed in
// total and chunks claimed outside a worker's static share ("steals" —
// the shared-counter scheduler's load balancing in action).
type chunkCounters struct {
	chunks atomic.Int64
	steals atomic.Int64
}

// claimChunks drains chunk indices [0, numChunks) for worker w off the
// shared counter, invoking run(lo, hi) with item ranges scaled by
// chunkSize and clamped to limit. chunksPer is the static per-worker
// share used only to classify steals.
func claimChunks(next *atomic.Int64, cc *chunkCounters, w, numChunks, chunksPer, chunkSize, limit int, run func(lo, hi int)) {
	var claimed, stolen int64
	for {
		c := int(next.Add(1)) - 1
		if c >= numChunks {
			break
		}
		claimed++
		if c/chunksPer != w {
			stolen++
		}
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > limit {
			hi = limit
		}
		run(lo, hi)
	}
	cc.chunks.Add(claimed)
	cc.steals.Add(stolen)
}

// parallelWorkers resolves the engine's effective worker count for a
// level of the given size: Parallelism when >1 and the level clears the
// threshold, else 1 (sequential kernel).
func parallelWorkers(parallelism, threshold, defaultThreshold, size int) int {
	if parallelism <= 1 {
		return 1
	}
	if threshold <= 0 {
		threshold = defaultThreshold
	}
	if size < threshold {
		return 1
	}
	return parallelism
}

// mbParState holds the MultiBFS pool's lazily allocated reusable state.
type mbParState struct {
	touchStamp []uint32    // per-vertex claim stamps, valid when == touchGen
	touchGen   uint32      // bumped per parallel top-down level
	touched    [][]graph.V // per-worker claimed-vertex lists
	nf         [][]graph.V // per-worker next-frontier buffers
}

// ensure sizes the pooled buffers for n vertices and workers workers.
//
//qbs:allow atomicfield runs before the level's workers start; the claim CAS is confined to the sweep
func (p *mbParState) ensure(n, workers int) {
	if p.touchStamp == nil {
		p.touchStamp = make([]uint32, n)
	}
	for len(p.touched) < workers {
		p.touched = append(p.touched, nil)
	}
	for len(p.nf) < workers {
		p.nf = append(p.nf, nil)
	}
}

// nextGen starts a fresh claim generation, clearing the stamp array on
// the (rare) wrap so a stale stamp can never alias the new generation.
//
//qbs:allow atomicfield runs between levels; the claim CAS is confined to the sweep
func (p *mbParState) nextGen() uint32 {
	p.touchGen++
	if p.touchGen == 0 {
		clear(p.touchStamp)
		p.touchGen = 1
	}
	return p.touchGen
}

// topDownParallel is the pooled form of the top-down level: workers
// claim frontier chunks off a shared counter and OR frontier words into
// the next-level accumulators with CAS; the first worker to touch a
// vertex claims it via the touch-stamp CAS and appends it to its own
// touched list. After the barrier each worker settles exactly the
// vertices it claimed — settleVertex writes only v's own words, so the
// settle phase needs no further synchronisation — and the per-worker
// next-frontier lists are concatenated. The accumulated words, and
// hence every settle(v, depth, newL, newN) payload, are identical to
// the sequential kernel's; only frontier order differs.
//
//qbs:hotpath
//qbs:allow atomicfield the settle phase reads accumulator words after the sweep barrier, one worker per claimed vertex
func (mb *MultiBFS) topDownParallel(push graph.Adjacency, landIdx []int16, settle func(graph.V, int32, uint64, uint64), frontier []graph.V, depth int32, workers int, nf []graph.V) []graph.V {
	mb.par.ensure(mb.n, workers)
	gen := mb.par.nextGen()
	numChunks := (len(frontier) + parChunk - 1) / parChunk
	chunksPer := (numChunks + workers - 1) / workers
	var next atomic.Int64
	var cc chunkCounters

	parRun(workers, func(w int) {
		touched := mb.par.touched[w][:0]
		claimChunks(&next, &cc, w, numChunks, chunksPer, parChunk, len(frontier), func(lo, hi int) {
			for _, u := range frontier[lo:hi] {
				lu, ln := mb.curL[u], mb.curN[u]
				both := lu | ln
				for _, v := range push.Neighbors(u) {
					// visited is frozen during this phase (settles run
					// after the barrier), so the plain read is safe.
					if both&^mb.visited[v] == 0 {
						continue
					}
					if claimUint32(&mb.par.touchStamp[v], gen) {
						touched = append(touched, v)
					}
					orUint64(&mb.nextL[v], lu)
					orUint64(&mb.nextN[v], ln)
				}
			}
		})
		mb.par.touched[w] = touched
	})

	parRun(workers, func(w int) {
		out := mb.par.nf[w][:0]
		for _, v := range mb.par.touched[w] {
			out = mb.settleVertex(v, depth, mb.nextL[v], mb.nextN[v], landIdx, settle, out)
		}
		mb.par.nf[w] = out
	})

	for w := 0; w < workers; w++ {
		nf = append(nf, mb.par.nf[w]...)
	}
	mb.ParallelLevels++
	mb.ParallelChunks += cc.chunks.Load()
	mb.ParallelSteals += cc.steals.Load()
	return nf
}

// bottomUpParallel is the pooled form of the bottom-up level: the
// vertex range is split into word-aligned chunks claimed off a shared
// counter, and each worker settles its own vertices immediately —
// settleVertex writes only v's visited/next words, all inside the
// worker's exclusive range, while the pull probes read neighbours'
// cur words, which this level never mutates. Per-vertex pull order is
// the sequential kernel's, so the early-exit point, arriving bit sets
// and settle payloads are bit-identical.
func (mb *MultiBFS) bottomUpParallel(pull graph.Adjacency, landIdx []int16, settle func(graph.V, int32, uint64, uint64), depth int32, full uint64, workers int, nf []graph.V) []graph.V {
	mb.par.ensure(mb.n, workers)
	numChunks := (mb.n + parChunk - 1) / parChunk
	chunksPer := (numChunks + workers - 1) / workers
	var next atomic.Int64
	var cc chunkCounters

	parRun(workers, func(w int) {
		out := mb.par.nf[w][:0]
		claimChunks(&next, &cc, w, numChunks, chunksPer, parChunk, mb.n, func(lo, hi int) {
			for v := graph.V(lo); int(v) < hi; v++ {
				vis := mb.visited[v]
				if vis == full {
					continue
				}
				var aL, aN uint64
				for _, u := range pull.Neighbors(v) {
					aL |= mb.curL[u]
					aN |= mb.curN[u]
					if aL|vis == full {
						break
					}
				}
				if (aL|aN)&^vis == 0 {
					continue
				}
				out = mb.settleVertex(v, depth, aL, aN, landIdx, settle, out)
			}
		})
		mb.par.nf[w] = out
	})

	for w := 0; w < workers; w++ {
		nf = append(nf, mb.par.nf[w]...)
	}
	mb.ParallelLevels++
	mb.ParallelChunks += cc.chunks.Load()
	mb.ParallelSteals += cc.steals.Load()
	return nf
}
