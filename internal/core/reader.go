package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"qbs/internal/graph"
)

// Reader is the read path of every index kind — the undirected and the
// directed immutable index and the dynamic one, which embed it: a pool
// of searchers and the seven query methods over whatever index current
// resolves to. For an immutable index that is a constant; for the
// dynamic index it is the index of the snapshot published last. Every
// call resolves once (QueryBatch once per batch, so all its answers come
// from one epoch) and checks a searcher out against what it resolved: a
// pooled searcher bound to an older epoch is re-bound, its workspaces
// surviving snapshot turnover. All methods are safe for concurrent use.
type Reader struct {
	current func() *Index
	pool    sync.Pool
}

// NewReader returns the read path over the index current resolves to.
func NewReader(current func() *Index) *Reader { return &Reader{current: current} }

// searcher draws a pooled searcher bound to ix. Pool refill and epoch
// rebind are its cold path: steady-state serving reuses an already-bound
// searcher.
func (r *Reader) searcher(ix *Index) *Searcher {
	if sr, ok := r.pool.Get().(*Searcher); ok && sr.Rebind(ix) {
		return sr
	}
	return NewSearcher(ix)
}

// Query answers SPG(u, v): the subgraph of exactly all shortest u–v
// paths — directed u → v paths over a digraph, whose answers keep their
// arcs' orientation — with Dist set to d_G(u, v) (InfDist when
// disconnected or unreachable).
func (r *Reader) Query(u, v graph.V) *graph.SPG {
	spg, _ := r.QueryWithStats(u, v)
	return spg
}

// QueryInto answers SPG(u, v) into a caller-owned result, resetting it
// first, and returns dst. Reusing one SPG across queries keeps the warm
// query path free of heap allocations (the result buffer is recycled at
// its high-water mark); serving loops that answer-and-encode should
// prefer it over Query. The result takes the index's orientation
// whatever it held before.
//
//qbs:zeroalloc
func (r *Reader) QueryInto(dst *graph.SPG, u, v graph.V) *graph.SPG {
	r.QueryIntoStats(dst, u, v)
	return dst
}

// QueryIntoStats is QueryInto that reports query internals instead of
// returning dst: the serving shape, one search into a recycled result.
// Answer and stats come from the one index the call resolved.
//
//qbs:zeroalloc
func (r *Reader) QueryIntoStats(dst *graph.SPG, u, v graph.V) QueryStats {
	sr := r.searcher(r.current())
	defer r.pool.Put(sr)
	return sr.QueryInto(dst, u, v)
}

// QueryWithStats answers SPG(u, v) and reports query internals.
func (r *Reader) QueryWithStats(u, v graph.V) (*graph.SPG, QueryStats) {
	spg := new(graph.SPG)
	return spg, r.QueryIntoStats(spg, u, v)
}

// Distance returns d_G(u, v) — d_G(u → v) over a digraph — using the
// sketch-guided search without path extraction.
func (r *Reader) Distance(u, v graph.V) int32 { return r.DistanceStats(u, v).Dist }

// DistanceStats is Distance that reports the search's internals (see
// Searcher.DistanceStats): the serving shape of a distance query.
//
//qbs:zeroalloc
func (r *Reader) DistanceStats(u, v graph.V) QueryStats {
	sr := r.searcher(r.current())
	defer r.pool.Put(sr)
	return sr.DistanceStats(u, v)
}

// Sketch returns an allocated copy of the query sketch S_uv, computed
// by the searcher as a query computes it (see Searcher.Sketch).
func (r *Reader) Sketch(u, v graph.V) *Sketch {
	sr := r.searcher(r.current())
	defer r.pool.Put(sr)
	return sr.Sketch(u, v)
}

// Pair is one query pair for QueryBatch.
type Pair struct{ U, V graph.V }

// batchChunk is the number of queries a batch worker claims at a time.
// Each chunk's results live in one result slab, so steady-state batches
// allocate once per chunk instead of once per query, and consecutive
// results stay cache-adjacent for the caller.
const batchChunk = 32

// QueryBatch answers many queries concurrently with up to parallelism
// workers (0 = GOMAXPROCS, capped at the chunk count — a surplus worker
// would draw a searcher, possibly constructing one, only to find no
// chunk left), all against the one index resolved when the batch starts:
// on the dynamic index every answer reflects the same epoch even if
// writers land updates mid-batch. Results align with the input slice.
// Each worker draws a searcher from the pool and answers into per-chunk
// result arenas, so repeated batches reuse workspaces and steady-state
// queries stay off the allocator.
//
// A query that panics (e.g. an out-of-range vertex id) does not bring
// the batch down: its slot is left nil, the worker discards its
// possibly-corrupt searcher instead of returning it to the pool and
// continues with a fresh one, and all remaining results are returned.
func (r *Reader) QueryBatch(pairs []Pair, parallelism int) []*graph.SPG {
	n := len(pairs)
	out := make([]*graph.SPG, n)
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	parallelism = min(parallelism, (n+batchChunk-1)/batchChunk)
	ix := r.current()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sr *Searcher
			defer func() {
				if sr != nil {
					r.pool.Put(sr)
				}
			}()
			for {
				start := int(next.Add(batchChunk)) - batchChunk
				if start >= n {
					return
				}
				arena := make([]graph.SPG, min(batchChunk, n-start))
				for i := range arena {
					if sr == nil {
						sr = r.searcher(ix)
					}
					p := pairs[start+i]
					if sr.queryIntoRecovered(&arena[i], p.U, p.V) {
						out[start+i] = &arena[i]
					} else {
						sr = nil // searcher state is suspect after a panic
					}
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// queryIntoRecovered answers one batch query, converting a panic into a
// false return so a poisoned query cannot deadlock or kill the batch.
func (sr *Searcher) queryIntoRecovered(dst *graph.SPG, u, v graph.V) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	sr.QueryInto(dst, u, v)
	return true
}
