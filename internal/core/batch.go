package core

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// QueryBatchInto answers n queries concurrently into out (len n) with
// up to parallelism workers (0 = GOMAXPROCS). pairAt yields the i-th
// query pair; acquire/release manage per-worker searchers (typically a
// pool). It is the shared engine behind every QueryBatch entry point;
// chunking, worker capping and panic isolation live in
// traverse.QueryBatch.
func QueryBatchInto(out []*graph.SPG, parallelism int, pairAt func(int) (graph.V, graph.V), acquire func() *Searcher, release func(*Searcher)) {
	traverse.QueryBatch(out, parallelism, pairAt, acquire, release,
		func(sr *Searcher, dst *graph.SPG, u, v graph.V) { sr.QueryInto(dst, u, v) })
}
