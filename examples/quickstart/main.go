// Quickstart: build a graph, build a QbS index, answer a
// shortest-path-graph query, and inspect the answer.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"qbs"
	"qbs/internal/analysis"
)

func main() {
	// A 14-vertex network in the spirit of the paper's running example
	// (Figures 2/4/5/6): three high-degree landmarks and several
	// redundant routes between the two "sides" of the graph.
	edges := []qbs.Edge{
		{U: 0, W: 3}, {U: 0, W: 4}, {U: 0, W: 5}, {U: 0, W: 13},
		{U: 1, W: 2}, {U: 1, W: 3}, {U: 1, W: 6}, {U: 1, W: 8}, {U: 1, W: 13},
		{U: 2, W: 3}, {U: 2, W: 11}, {U: 2, W: 12},
		{U: 3, W: 5}, {U: 4, W: 5}, {U: 4, W: 13},
		{U: 6, W: 7}, {U: 6, W: 8}, {U: 7, W: 8}, {U: 7, W: 10},
		{U: 8, W: 9}, {U: 9, W: 10}, {U: 9, W: 11}, {U: 10, W: 11},
		{U: 12, W: 13},
	}
	g, err := qbs.FromEdges(14, edges)
	if err != nil {
		panic(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Build the index with three landmarks (the paper uses the
	// highest-degree vertices; |R| = 20 on real graphs).
	index, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("landmarks: %v\n", index.Landmarks())

	// A query with several shortest paths between the two sides.
	u, v := qbs.V(0), qbs.V(9)
	spg, stats := index.QueryWithStats(u, v)
	fmt.Printf("\nSPG(%d,%d): distance %d\n", u, v, spg.Dist)
	fmt.Printf("  sketch upper bound d⊤ = %d\n", stats.DTop)
	fmt.Printf("  vertices: %v\n", spg.Vertices())
	fmt.Printf("  edges:\n")
	for _, e := range spg.Edges() {
		fmt.Printf("    %d - %d\n", e.U, e.W)
	}

	// Every edge lies on a shortest path; count how many distinct
	// shortest paths the answer encodes. The SPG layers itself: depth
	// within it is distance from u, so no further index query is needed.
	n, _ := analysis.BuildDAG(spg, nil).CountPaths()
	fmt.Printf("  distinct shortest paths: %d\n", n)

	// Compare against the index-free baseline.
	base := qbs.BiBFS(g, u, v)
	fmt.Printf("\nBi-BFS agrees: %v\n", spg.Equal(base))
}
