package qbs_test

import (
	"fmt"

	"qbs"
)

// The diamond graph: two shortest 0→4 routes through 1 and 3.
func diamondGraph() *qbs.Graph {
	b := qbs.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 3)
	b.AddEdge(3, 2)
	b.AddEdge(2, 4)
	return b.MustBuild()
}

func ExampleBuildIndex() {
	g := diamondGraph()
	index, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 2})
	if err != nil {
		panic(err)
	}
	spg := index.Query(0, 4)
	fmt.Println("distance:", spg.Dist)
	fmt.Println("edges:", len(spg.Edges()))
	// Output:
	// distance: 3
	// edges: 5
}

func ExampleIndex_QueryWithStats() {
	g := diamondGraph()
	index := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 1})
	spg, stats := index.QueryWithStats(0, 2)
	fmt.Println("distance:", spg.Dist)
	fmt.Println("sketch bound:", stats.DTop)
	fmt.Println("both paths found:", spg.NumEdges() == 4)
	// Output:
	// distance: 2
	// sketch bound: 2
	// both paths found: true
}

func ExampleIndex_Distance() {
	g := diamondGraph()
	index := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 2})
	fmt.Println(index.Distance(0, 4))
	fmt.Println(index.Distance(4, 4))
	// Output:
	// 3
	// 0
}

func ExampleBiBFS() {
	g := diamondGraph()
	spg := qbs.BiBFS(g, 0, 2)
	fmt.Println("distance:", spg.Dist)
	fmt.Println("vertices:", spg.Vertices())
	// Output:
	// distance: 2
	// vertices: [0 1 2 3]
}

func ExampleBuildIndex_directed() {
	b := qbs.NewDirectedBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 3)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0) // cycle back
	g, _ := b.Build()

	index, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 1})
	if err != nil {
		panic(err)
	}
	fwd := index.Query(0, 3)
	bwd := index.Query(3, 0)
	fmt.Println("forward:", fwd.Dist, "directed:", fwd.Directed(), "arcs:", fwd.NumEdges())
	fmt.Println("backward:", bwd.Dist, "arcs:", bwd.Edges()) // Edge{U, W} is the arc U→W
	// Output:
	// forward: 2 directed: true arcs: 4
	// backward: 1 arcs: [{3 0}]
}

func ExampleIndex_QueryBatch() {
	g := diamondGraph()
	index := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 2})
	results := index.QueryBatch([]qbs.Pair{{U: 0, V: 4}, {U: 1, V: 3}}, 2)
	for _, spg := range results {
		fmt.Println(spg.Dist)
	}
	// Output:
	// 3
	// 2
}

func ExampleBuildDynamicIndex() {
	g := diamondGraph()
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{
		Index: qbs.Options{NumLandmarks: 2},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("distance:", di.Query(0, 4).Dist)

	// Insert a shortcut: the index repairs itself incrementally and the
	// next query sees the new snapshot.
	if _, err := di.AddEdge(0, 4); err != nil {
		panic(err)
	}
	fmt.Println("after insert:", di.Query(0, 4).Dist)

	// Remove it again: deletion repair restores the old answers.
	if _, err := di.RemoveEdge(0, 4); err != nil {
		panic(err)
	}
	fmt.Println("after delete:", di.Query(0, 4).Dist)
	fmt.Println("epoch:", di.Epoch())
	// Output:
	// distance: 3
	// after insert: 1
	// after delete: 3
	// epoch: 2
}
