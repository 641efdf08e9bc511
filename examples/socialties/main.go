// Social tie strength (paper §1, Figure 1): two pairs of users at the
// same distance can be connected very differently — one narrow chain of
// acquaintances versus a thick braid of independent routes. The shortest
// path graph distinguishes them where a point-to-point shortest path
// cannot.
//
// This example scores sampled pairs of a social-network analog by
// "connection redundancy" (the number of distinct shortest paths), then
// reports the strongest and weakest ties among equal-distance pairs and
// the pairs brokered by a single intermediary (the Shortest Path Common
// Links problem).
//
// Run with:
//
//	go run ./examples/socialties
package main

import (
	"fmt"
	"sort"

	"qbs"
	"qbs/internal/analysis"
	"qbs/internal/datasets"
	"qbs/internal/workload"
)

type tie struct {
	pair   workload.Pair
	dist   int32
	paths  int64
	edges  int
	common []qbs.V // vertices on every shortest path (the "common links")
}

func main() {
	spec, err := datasets.ByKey("LJ")
	if err != nil {
		panic(err)
	}
	g := spec.Generate(0.03)
	fmt.Printf("social network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	index, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 20})
	if err != nil {
		panic(err)
	}

	var ties []tie
	for _, p := range workload.SamplePairs(g, 400, 23) {
		spg := index.Query(p.U, p.V)
		if spg.Dist == qbs.InfDist || spg.Dist < 2 {
			continue
		}
		dag := analysis.BuildDAG(spg, nil) // layered from the SPG's own edges; no distance oracle
		if dag == nil {
			continue
		}
		numPaths, _ := dag.CountPaths()
		ties = append(ties, tie{
			pair:   p,
			dist:   spg.Dist,
			paths:  numPaths,
			edges:  spg.NumEdges(),
			common: dag.CommonLinks(),
		})
	}

	// Group by distance and contrast strongest vs weakest ties.
	byDist := map[int32][]tie{}
	for _, t := range ties {
		byDist[t.dist] = append(byDist[t.dist], t)
	}
	var dists []int32
	for d := range byDist {
		dists = append(dists, d)
	}
	sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })

	fmt.Printf("\n%-8s %-8s %-22s %-22s\n", "distance", "pairs", "weakest tie (paths)", "strongest tie (paths)")
	for _, d := range dists {
		group := byDist[d]
		sort.Slice(group, func(i, j int) bool { return group[i].paths < group[j].paths })
		lo, hi := group[0], group[len(group)-1]
		fmt.Printf("%-8d %-8d (%d,%d): %-12d (%d,%d): %d\n",
			d, len(group), lo.pair.U, lo.pair.V, lo.paths, hi.pair.U, hi.pair.V, hi.paths)
	}

	// Shortest Path Common Links: pairs whose every shortest path shares
	// an intermediary — the broker users.
	fmt.Printf("\npairs brokered by a shared intermediary (common links):\n")
	count := 0
	for _, t := range ties {
		if len(t.common) > 0 && t.paths > 1 {
			fmt.Printf("  (%d,%d) dist=%d paths=%d brokers=%v\n",
				t.pair.U, t.pair.V, t.dist, t.paths, t.common)
			count++
			if count == 8 {
				break
			}
		}
	}
	if count == 0 {
		fmt.Println("  none in this sample — every multi-path pair has disjoint routes")
	}
}
