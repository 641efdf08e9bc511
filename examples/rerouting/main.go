// Shortest Path Rerouting (paper §1): given two shortest paths between
// the same endpoints, find a *rerouting sequence* — a chain of shortest
// paths each differing from the previous in exactly one vertex — or
// report that none exists. This reconfiguration problem models changing
// a network route without ever leaving the optimum.
//
// The shortest path graph is the natural search space: every path of the
// sequence is a path of SPG(u, v), so the rerouting search never touches
// the rest of the graph.
//
// Run with:
//
//	go run ./examples/rerouting
package main

import (
	"fmt"
	"strings"

	"qbs"
	"qbs/internal/analysis"
	"qbs/internal/datasets"
	"qbs/internal/workload"
)

func main() {
	spec, err := datasets.ByKey("DB")
	if err != nil {
		panic(err)
	}
	g := spec.Generate(0.05)
	fmt.Printf("network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	index, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 20})
	if err != nil {
		panic(err)
	}

	// Scan pairs with several shortest paths; report the first pair with
	// a rerouting sequence and the first without one (both outcomes are
	// legitimate answers to the reconfiguration problem).
	var shownSeq, shownStuck bool
	for _, p := range workload.SamplePairs(g, 2000, 11) {
		if shownSeq && shownStuck {
			break
		}
		spg := index.Query(p.U, p.V)
		if spg.Dist < 3 || spg.Dist == qbs.InfDist {
			continue
		}
		dag := analysis.BuildDAG(spg, nil) // layered from the SPG's own edges; no distance oracle
		if dag == nil {
			continue
		}
		paths := dag.EnumeratePaths(64)
		if len(paths) < 3 {
			continue
		}
		from, to := paths[0], paths[len(paths)-1]
		seq := dag.Reroute(from, to, 64)
		switch {
		case seq != nil && !shownSeq:
			shownSeq = true
			fmt.Printf("\npair (%d,%d), distance %d, %d shortest paths (SPG: %d vertices, %d edges)\n",
				p.U, p.V, spg.Dist, len(paths), len(spg.Vertices()), spg.NumEdges())
			fmt.Printf("reroute from %s\n        to   %s\n", fmtPath(from), fmtPath(to))
			fmt.Printf("rerouting sequence (%d single-vertex swaps):\n", len(seq)-1)
			for i, q := range seq {
				fmt.Printf("  %2d: %s\n", i, fmtPath(q))
			}
		case seq == nil && !shownStuck:
			shownStuck = true
			fmt.Printf("\npair (%d,%d), distance %d, %d shortest paths: NO single-vertex-swap\n",
				p.U, p.V, spg.Dist, len(paths))
			fmt.Printf("  rerouting sequence exists between %s and %s\n", fmtPath(from), fmtPath(to))
		}
	}
	if !shownSeq {
		fmt.Println("no reroutable pair found in the sample")
	}
}

func fmtPath(p []qbs.V) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, " → ")
}
