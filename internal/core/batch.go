package core

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// QueryBatchInto answers n queries concurrently into out (len n) with
// up to parallelism workers (0 = GOMAXPROCS). The result type is the
// caller's — graph.SPG or graph.DiSPG. pairAt yields the i-th query
// pair; acquire/release manage per-worker searchers (typically a pool).
// It is the shared engine behind the static, dynamic and directed
// QueryBatch entry points; chunking, worker capping and panic isolation
// live in traverse.QueryBatch.
func QueryBatchInto[T any, P interface {
	*T
	Result
}](out []*T, parallelism int, pairAt func(int) (graph.V, graph.V), acquire func() *Searcher, release func(*Searcher)) {
	traverse.QueryBatch(out, parallelism, pairAt, acquire, release,
		func(sr *Searcher, dst *T, u, v graph.V) { sr.QueryInto(P(dst), u, v) })
}
