package traverse

import (
	"runtime"
	"sync"
	"sync/atomic"

	"qbs/internal/graph"
)

// BatchChunk is the number of queries a batch worker claims at a time.
// Each chunk's results live in one result slab, so steady-state batches
// allocate once per chunk instead of once per query, and consecutive
// results stay cache-adjacent for the caller.
const BatchChunk = 32

// QueryBatch answers n queries concurrently into out (len n) with up to
// parallelism workers (0 = GOMAXPROCS, capped at the chunk count — a
// surplus worker would acquire a searcher, possibly constructing one,
// only to find no chunk left). pairAt yields the i-th query pair;
// acquire/release manage per-worker searchers (typically a pool); query
// answers one pair into a chunk-slab slot of the caller's result type.
// It is the engine behind core.QueryBatchInto, which every batch entry
// point shares.
//
// A query that panics (e.g. an out-of-range vertex id) does not bring
// the batch down: its slot is left nil, the worker discards its
// possibly-corrupt searcher instead of releasing it and continues with
// a fresh one, and all remaining results are returned.
func QueryBatch[R any, S comparable](out []*R, parallelism int, pairAt func(int) (graph.V, graph.V), acquire func() S, release func(S), query func(S, *R, graph.V, graph.V)) {
	n := len(out)
	if n == 0 {
		return
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if chunks := (n + BatchChunk - 1) / BatchChunk; parallelism > chunks {
		parallelism = chunks
	}
	var zero S
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := acquire()
			defer func() {
				if sr != zero {
					release(sr)
				}
			}()
			for {
				start := int(next.Add(BatchChunk)) - BatchChunk
				if start >= n {
					return
				}
				end := min(start+BatchChunk, n)
				arena := make([]R, end-start)
				for i := start; i < end; i++ {
					if sr == zero {
						sr = acquire()
					}
					u, v := pairAt(i)
					dst := &arena[i-start]
					if runBatchQuery(query, sr, dst, u, v) {
						out[i] = dst
					} else {
						sr = zero // searcher state is suspect after a panic
					}
				}
			}
		}()
	}
	wg.Wait()
}

// runBatchQuery answers one batch query, converting a panic into a
// false return so a poisoned query cannot deadlock or kill the batch.
func runBatchQuery[R any, S any](query func(S, *R, graph.V, graph.V), sr S, dst *R, u, v graph.V) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	query(sr, dst, u, v)
	return true
}
