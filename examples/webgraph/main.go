// Directed shortest path graphs on a web-like digraph — the paper's §2
// extension to directed graphs. Hyperlinks are one-way: how pages reach
// each other can be wildly asymmetric, and the directed SPG captures
// every optimal route in the direction asked.
//
// The example builds a scale-free digraph (preferential attachment on
// both in- and out-degree, like link graphs), indexes it with directed
// QbS, and contrasts u→v against v→u for sampled pairs.
//
// Run with:
//
//	go run ./examples/webgraph
package main

import (
	"fmt"
	"math/rand"

	"qbs"
	"qbs/internal/graph"
)

func main() {
	g := graph.DirectedScaleFree(30000, 3, 2021)
	fmt.Printf("web graph: %d pages, %d links\n", g.NumVertices(), g.NumArcs())

	index, err := qbs.BuildDiIndex(g, qbs.DiOptions{NumLandmarks: 20})
	if err != nil {
		panic(err)
	}
	fmt.Printf("index built; landmark pages: %v\n\n", index.Landmarks()[:5])

	rng := rand.New(rand.NewSource(7))
	type row struct {
		u, v       qbs.V
		dFwd, dBwd int32
		aFwd, aBwd int
	}
	var asym []row
	for i := 0; i < 400 && len(asym) < 8; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		fwd := index.Query(u, v)
		bwd := index.Query(v, u)
		if fwd.Dist == qbs.InfDist || bwd.Dist == qbs.InfDist || fwd.Dist == 0 {
			continue
		}
		if fwd.Dist != bwd.Dist || fwd.NumEdges() != bwd.NumEdges() {
			asym = append(asym, row{u, v, fwd.Dist, bwd.Dist, fwd.NumEdges(), bwd.NumEdges()})
		}
	}

	fmt.Println("asymmetric pairs (directed distances and route structure differ):")
	fmt.Printf("%-16s %-10s %-10s %-12s %-12s\n", "pair", "d(u→v)", "d(v→u)", "arcs(u→v)", "arcs(v→u)")
	for _, r := range asym {
		fmt.Printf("(%6d,%6d) %-10d %-10d %-12d %-12d\n", r.u, r.v, r.dFwd, r.dBwd, r.aFwd, r.aBwd)
	}

	// A one-way pair: reachable forward, unreachable backward.
	for i := 0; i < 2000; i++ {
		u := qbs.V(rng.Intn(g.NumVertices()))
		v := qbs.V(rng.Intn(g.NumVertices()))
		fwd := index.Query(u, v)
		bwd := index.Query(v, u)
		if fwd.Dist != qbs.InfDist && bwd.Dist == qbs.InfDist {
			fmt.Printf("\none-way pair: %d reaches %d in %d hops (%d optimal-route links), "+
				"but %d cannot reach %d at all\n",
				u, v, fwd.Dist, fwd.NumEdges(), v, u)
			// The answer's edges are its links: Edge{U, W} is the arc U → W.
			for _, link := range fwd.Edges() {
				fmt.Printf("  %d → %d\n", link.U, link.W)
			}
			break
		}
	}
}
