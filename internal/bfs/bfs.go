// Package bfs provides the breadth-first searches shared by the QbS
// index and the baselines: single-source distance BFS, the one two-sided
// search (Search: its sides, the meeting loop and the reverse
// extraction) that both the QbS guided search and the Bi-BFS baseline
// (§6.1) run, and a brute-force shortest-path-graph oracle used as
// ground truth in tests. The sides' Workspace and the level expansion
// they grow through live in qbs/internal/traverse.
package bfs

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Infinity marks an unreached vertex in distance arrays.
const Infinity = traverse.Infinity

// Workspace is the reusable per-query BFS state; see
// traverse.Workspace.
type Workspace = traverse.Workspace

// NewWorkspace creates a workspace for graphs with n vertices.
func NewWorkspace(n int) *Workspace { return traverse.NewWorkspace(n) }

// Distances runs a full BFS from source and returns the distance array
// (Infinity for unreachable vertices). It allocates; query paths use
// Workspace instead.
func Distances(g graph.Adjacency, source graph.V) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[source] = 0
	queue := make([]graph.V, 1, n)
	queue[0] = source
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, w := range g.Neighbors(u) {
			if dist[w] == Infinity {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
