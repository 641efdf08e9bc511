// Shortest Path Network Interdiction (paper §1): find the critical
// vertices and edges whose removal destroys *all* shortest paths between
// two endpoints — e.g. hardening the links a cyberattack would sever, or
// finding the chokepoints of a communication network.
//
// The shortest path graph is exactly the object this problem needs: a
// vertex (edge) is critical iff it separates u from v within SPG(u, v).
// Computing SPGs with QbS makes scanning many endpoint pairs cheap.
//
// Run with:
//
//	go run ./examples/interdiction
package main

import (
	"fmt"
	"sort"

	"qbs"
	"qbs/internal/analysis"
	"qbs/internal/datasets"
	"qbs/internal/workload"
)

func main() {
	// A computer-network-like analog (Skitter).
	spec, err := datasets.ByKey("SK")
	if err != nil {
		panic(err)
	}
	g := spec.Generate(0.05)
	fmt.Printf("network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	index, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 20})
	if err != nil {
		panic(err)
	}

	pairs := workload.SamplePairs(g, 200, 7)
	fmt.Printf("scanning %d endpoint pairs for interdiction bottlenecks...\n\n", len(pairs))

	type finding struct {
		pair     workload.Pair
		dist     int32
		critical []qbs.V
		bridges  []qbs.Edge
	}
	var vulnerable []finding
	for _, p := range pairs {
		spg := index.Query(p.U, p.V)
		if spg.Dist == qbs.InfDist || spg.Dist == 0 {
			continue
		}
		dag := analysis.BuildDAG(spg, nil) // layered from the SPG's own edges; no distance oracle
		if dag == nil {
			continue
		}
		crit := dag.CriticalVertices()
		br := dag.CriticalEdges()
		if len(crit) > 0 || len(br) > 0 {
			vulnerable = append(vulnerable, finding{p, spg.Dist, crit, br})
		}
	}
	sort.Slice(vulnerable, func(i, j int) bool {
		return len(vulnerable[i].critical) > len(vulnerable[j].critical)
	})

	fmt.Printf("%d/%d pairs have single points of failure\n\n", len(vulnerable), len(pairs))
	show := vulnerable
	if len(show) > 10 {
		show = show[:10]
	}
	for _, f := range show {
		fmt.Printf("pair (%d,%d) dist=%d: %d critical vertices %v, %d critical edges %v\n",
			f.pair.U, f.pair.V, f.dist, len(f.critical), f.critical, len(f.bridges), f.bridges)
	}

	// Aggregate: which vertices are critical for the most pairs? These
	// are the infrastructure nodes to defend first.
	counts := map[qbs.V]int{}
	for _, f := range vulnerable {
		for _, v := range f.critical {
			counts[v]++
		}
	}
	type vc struct {
		v qbs.V
		c int
	}
	var ranked []vc
	for v, c := range counts {
		ranked = append(ranked, vc{v, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].v < ranked[j].v
	})
	fmt.Printf("\nmost frequently critical vertices:\n")
	for i, r := range ranked {
		if i == 5 {
			break
		}
		fmt.Printf("  vertex %d: critical for %d pairs (degree %d)\n", r.v, r.c, g.Degree(r.v))
	}
}
