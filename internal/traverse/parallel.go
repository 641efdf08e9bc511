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
	// word chunk boundaries land on cache-line boundaries and two
	// workers never write the same line.
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
// caller alone when workers is 1) and returns the level's vertices and
// their count. Workers claim chunks of the vertex range off one atomic
// cursor; for every vertex some source has not reached, a worker pulls
// the frontier bits of its pull-neighbours and settles it at once.
// Settling writes only v's own visited/next words, all inside the
// worker's chunk, while the probes read neighbours' cur words, which
// this level never mutates. A worker counts what each chunk settled; a
// level that fits the list is listed after it, in ascending order, by a
// scan of the next-level words of the chunks that settled a vertex, so
// the list is the same whatever the worker count. Per-vertex pull order
// is fixed, so the early-exit point, the arriving bit sets and the
// settle payloads are the same at every worker count too.
func bottomUpLevel[W word](mb *MultiBFS, w *words[W], pull graph.Adjacency, landIdx []int16, settle func(graph.V, int32, uint64, uint64), depth int32, full W, workers int) ([]graph.V, int) {
	n := mb.n
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
			k := 0
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
				k++
			}
			mb.settled[lo/parChunk] = k
		}
	})
	count := 0
	for _, k := range mb.settled {
		count += k
	}
	nf := mb.next[:0]
	if count > cap(nf) {
		return nf, count
	}
	for c, k := range mb.settled {
		for v := c * parChunk; k > 0; v++ {
			if w.nextL[v]|w.nextN[v] != 0 {
				nf = append(nf, graph.V(v))
				k--
			}
		}
	}
	return nf, count
}
