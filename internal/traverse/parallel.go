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
	// parChunk is the number of vertices in one claimed work chunk. A
	// multiple of 64 so ranges cover whole visited-bitmap words, and — at
	// 8 bytes per per-vertex MultiBFS word — so chunk boundaries land on
	// cache-line boundaries: two workers never write the same line.
	parChunk = 1024

	// minParVertices is the pool floor: a bottom-up level over fewer
	// vertices runs on the caller alone — below it the goroutine fan-out
	// costs more than the level.
	minParVertices = 4096
)

// parRun executes body(w) for w in [0, workers): workers-1 goroutines
// plus the calling goroutine, returning when all complete. Spawned once
// per level; the WaitGroup gives every cross-level memory access a
// happens-before edge through the coordinating goroutine.
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

// bottomUp runs one bottom-up level on workers goroutines (the caller
// alone when workers is 1). Workers claim word-aligned chunks of the
// vertex range off one atomic cursor; for every vertex some source has
// not reached, a worker pulls the frontier bits of its pull-neighbours
// and settles it at once. Settling writes only v's own visited/next
// words, all inside the worker's chunk, while the probes read
// neighbours' cur words, which this level never mutates. Per-vertex pull
// order is fixed, so the early-exit point, the arriving bit sets and the
// settle payloads are the same at every width; only the order of the
// level's vertices in nf differs.
func (mb *MultiBFS) bottomUp(pull graph.Adjacency, landIdx []int16, settle func(graph.V, int32, uint64, uint64), depth int32, full uint64, workers int, nf []graph.V) []graph.V {
	for len(mb.nf) < workers {
		mb.nf = append(mb.nf, nil)
	}
	mb.nf[0] = nf // the caller's worker fills the level's own buffer
	var cursor atomic.Int64
	parRun(workers, func(w int) {
		out := mb.nf[w][:0]
		for {
			lo := int(cursor.Add(parChunk)) - parChunk
			if lo >= mb.n {
				break
			}
			hi := min(lo+parChunk, mb.n)
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
						// Every source is already visited or arriving via
						// QL; later neighbours cannot change any bit's
						// QL-priority classification, so stop probing.
						break
					}
				}
				if (aL|aN)&^vis == 0 {
					continue
				}
				out = mb.settleVertex(v, depth, aL, aN, landIdx, settle, out)
			}
		}
		mb.nf[w] = out
	})
	nf = mb.nf[0]
	for _, out := range mb.nf[1:workers] {
		nf = append(nf, out...)
	}
	return nf
}
