// Package analysis holds two shims the frozen benchmark directory
// compiles against, BuildDAG and CountDiPaths, and nothing else: an
// answer numbers, layers and counts itself (graph.SPG's CountPaths and
// EnumeratePaths), and the next benchmark change deletes this package.
package analysis

import "qbs/internal/graph"

// DAG is the answer itself, under the name BuildDAG's result had.
//
// Deprecated: kept for benchmark/, which this round may not edit. Use
// graph.SPG.
type DAG = graph.SPG

// BuildDAG returns spg itself, whose CountPaths layers and counts it,
// or nil for a trivial or disconnected pair.
//
// Deprecated: kept for benchmark/, which this round may not edit. Use
// spg.CountPaths. distFromSource is ignored and never invoked: the
// layering is derived from the answer's own edges.
func BuildDAG(spg *graph.SPG, distFromSource func(graph.V) int32) *DAG {
	if spg.Dist == graph.InfDist || spg.Source == spg.Target {
		return nil
	}
	return spg
}

// CountDiPaths returns spg.CountPaths(): (0, false) for a disconnected
// pair and (1, false) for the trivial pair.
//
// Deprecated: kept for benchmark/, which this round may not edit. Use
// spg.CountPaths. distFromSource is ignored and never invoked.
func CountDiPaths(spg *graph.SPG, distFromSource func(graph.V) int32) (n int64, saturated bool) {
	return spg.CountPaths()
}
