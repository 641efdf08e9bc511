// Package workload generates query workloads and measures their
// structural properties, mirroring the paper's evaluation setup (§6.1):
// uniformly sampled vertex pairs and their distance distribution
// (Figure 7).
package workload

import (
	"math/rand"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// Pair is one query pair.
type Pair struct {
	U, V graph.V
}

// SamplePairs draws count pairs of vertices uniformly at random (with
// replacement over pairs, u ≠ v), deterministically for a seed. This is
// the paper's workload: 10,000 random pairs per dataset.
func SamplePairs(g *graph.Graph, count int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	pairs := make([]Pair, 0, count)
	if n < 2 {
		return pairs
	}
	for len(pairs) < count {
		u := graph.V(rng.Intn(n))
		v := graph.V(rng.Intn(n))
		if u != v {
			pairs = append(pairs, Pair{u, v})
		}
	}
	return pairs
}

// DistanceDistribution is the Figure 7 histogram: Fraction[d] is the
// fraction of sampled pairs at distance d; Unreachable counts
// disconnected pairs; Mean is the average finite distance.
type DistanceDistribution struct {
	Fraction    []float64
	Counts      []int
	Unreachable int
	Mean        float64
	Max         int32
}

// MeasureDistances BFSes each pair (grouped by source to amortise) and
// returns the distance distribution. The evaluation harness reads Figure
// 7 off the exact distances its index answers instead; this is the
// reference it is tested against.
func MeasureDistances(g *graph.Graph, pairs []Pair) DistanceDistribution {
	bySource := make(map[graph.V][]graph.V)
	for _, p := range pairs {
		bySource[p.U] = append(bySource[p.U], p.V)
	}
	var dd DistanceDistribution
	counts := make(map[int32]int)
	var sum, finite int64
	for u, vs := range bySource {
		dist := bfs.Distances(g, u)
		for _, v := range vs {
			d := dist[v]
			if d == bfs.Infinity {
				dd.Unreachable++
				continue
			}
			counts[d]++
			sum += int64(d)
			finite++
			if d > dd.Max {
				dd.Max = d
			}
		}
	}
	dd.Counts = make([]int, dd.Max+1)
	dd.Fraction = make([]float64, dd.Max+1)
	for d, c := range counts {
		dd.Counts[d] = c
	}
	total := len(pairs)
	if total > 0 {
		for d := range dd.Fraction {
			dd.Fraction[d] = float64(dd.Counts[d]) / float64(total)
		}
	}
	if finite > 0 {
		dd.Mean = float64(sum) / float64(finite)
	}
	return dd
}

// ApproxAvgDistance estimates the average pairwise distance from a
// sample of sources (the "avg dist" column of Table 1).
func ApproxAvgDistance(g *graph.Graph, sources int, seed int64) float64 {
	n := g.NumVertices()
	if n < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	if sources > n {
		sources = n
	}
	var sum, count int64
	for i := 0; i < sources; i++ {
		u := graph.V(rng.Intn(n))
		dist := bfs.Distances(g, u)
		for v, d := range dist {
			if d != bfs.Infinity && graph.V(v) != u {
				sum += int64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
