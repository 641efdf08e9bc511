package traverse

import (
	"sync"
	"sync/atomic"

	"qbs/internal/graph"
)

// The bottom-up level kernel of MultiBFS and its worker pool. See doc.go
// "Parallel execution model" for the design and the memory-ordering
// argument.

const (
	// parChunk is the number of vertices in one claimed work chunk: a
	// multiple of 16, so that at 4 or 8 bytes per per-vertex MultiBFS
	// word, and at 4 bytes per slot of the next-level list, chunk
	// boundaries land on cache-line boundaries and two workers never
	// write the same line of either.
	parChunk = 1024

	// minParVertices is the pool floor: a bottom-up level over fewer
	// vertices runs on the caller alone — below it the goroutine fan-out
	// costs more than the level.
	minParVertices = 4096
)

// parRun executes body on workers goroutines: workers-1 spawned plus
// the calling goroutine, returning when all complete. Spawned once per
// level; the WaitGroup gives every cross-level memory access a
// happens-before edge through the coordinating goroutine.
func parRun(workers int, body func()) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body()
	wg.Wait()
}

// bottomUpLevel runs one bottom-up level on workers goroutines (the
// caller alone when workers is 1) and returns the level's vertices, in
// mb.next. Workers claim chunks of the vertex range off one atomic
// cursor; for every vertex some source has not reached, a worker pulls
// the frontier bits of its pull-neighbours and settles it at once.
// Settling writes only v's own visited/next words, all inside the
// worker's chunk, while the probes read neighbours' cur words, which
// this level never mutates. A chunk's settled vertices go to the same
// range of mb.next, which holds them all, and the ranges are packed
// after the level, so the level lists its vertices in ascending order
// whatever the worker count. Per-vertex pull order is fixed, so the
// early-exit point, the arriving bit sets and the settle payloads are the
// same at every worker count too.
func bottomUpLevel[W word](mb *MultiBFS, w *words[W], pull graph.Adjacency, landIdx []int16, settle func(graph.V, int32, uint64, uint64), depth int32, full W, workers int) []graph.V {
	n := mb.n
	nf := mb.next[:n]
	if mb.settled == nil {
		mb.settled = make([]int, (n+parChunk-1)/parChunk)
	}
	var cursor atomic.Int64
	parRun(workers, func() {
		for {
			lo := int(cursor.Add(parChunk)) - parChunk
			if lo >= n {
				break
			}
			hi := min(lo+parChunk, n)
			k := lo
			for v := graph.V(lo); int(v) < hi; v++ {
				vis := w.visited[v]
				if vis == full {
					continue
				}
				var aL, aN W
				for _, u := range pull.Neighbors(v) {
					aL |= w.curL[u]
					aN |= w.curN[u]
					if aL|vis == full {
						// Every source is already visited or arriving via
						// QL; later neighbours cannot change any bit's
						// QL-priority classification, so stop probing.
						break
					}
				}
				if (aL|aN)&^vis == 0 {
					continue
				}
				settleVertex(w, v, depth, aL, aN, landIdx, settle)
				nf[k] = v
				k++
			}
			mb.settled[lo/parChunk] = k - lo
		}
	})
	k := 0
	for c, m := range mb.settled {
		lo := c * parChunk
		k += copy(nf[k:], nf[lo:lo+m])
	}
	return nf[:k]
}
