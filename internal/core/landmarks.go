package core

import (
	"math/rand"
	"sort"

	"qbs/internal/graph"
)

// LandmarkStrategy selects k landmarks from g. Strategies must be
// deterministic given (g, k, seed).
//
// The paper uses highest-degree selection (§6.1) and names landmark
// selection as future work (§8); Random and ByCoverage are the ablation
// strategies exercised by the `ablation-landmarks` experiment.
type LandmarkStrategy func(g *graph.Graph, k int, seed int64) []graph.V

// ByDegree picks the k highest-degree vertices (ties by id) — the
// paper's default: removing high-degree vertices sparsifies the graph
// most, and hub landmarks give tight sketch bounds.
func ByDegree(g *graph.Graph, k int, _ int64) []graph.V {
	return g.TopDegreeVertices(k)
}

// Random picks k distinct vertices uniformly at random.
func Random(g *graph.Graph, k int, seed int64) []graph.V {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	out := make([]graph.V, k)
	for i := 0; i < k; i++ {
		out[i] = graph.V(perm[i])
	}
	return out
}

// ByApproxBetweenness scores vertices by sampled shortest-path
// betweenness: BFS trees from s sampled sources accumulate, for each
// vertex, the number of source–target shortest paths passing through it
// (Brandes' dependency accumulation restricted to the sample). The k
// top-scoring vertices become landmarks. More faithful to "vertices on
// many shortest paths" than raw degree, at O(s·|E|) selection cost —
// one of the landmark selection strategies the paper leaves as future
// work (§8).
func ByApproxBetweenness(g *graph.Graph, k int, seed int64) []graph.V {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	samples := 32
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(seed))
	score := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n) // shortest path counts from the source
	delta := make([]float64, n) // Brandes dependencies
	order := make([]graph.V, 0, n)
	for s := 0; s < samples; s++ {
		src := graph.V(rng.Intn(n))
		for i := range dist {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
		}
		order = order[:0]
		dist[src] = 0
		sigma[src] = 1
		order = append(order, src)
		for head := 0; head < len(order); head++ {
			u := order[head]
			for _, w := range g.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					order = append(order, w)
				}
				if dist[w] == dist[u]+1 {
					sigma[w] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, u := range g.Neighbors(w) {
				if dist[u] == dist[w]-1 && sigma[w] > 0 {
					delta[u] += sigma[u] / sigma[w] * (1 + delta[w])
				}
			}
			score[w] += delta[w]
		}
	}
	vs := make([]graph.V, n)
	for i := range vs {
		vs[i] = graph.V(i)
	}
	sort.Slice(vs, func(i, j int) bool {
		if score[vs[i]] != score[vs[j]] {
			return score[vs[i]] > score[vs[j]]
		}
		// Stable fall-back: degree then id, so zero-score ties are still
		// useful landmarks.
		di, dj := g.Degree(vs[i]), g.Degree(vs[j])
		if di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs[:k]
}

// ByCoverage greedily picks vertices that maximise newly covered 2-hop
// neighbourhoods: each chosen landmark marks itself and its neighbours
// covered, and candidates are scored by the number of uncovered
// neighbours. A cheap proxy for shortest-path coverage that avoids
// clustering landmarks in one hub region.
func ByCoverage(g *graph.Graph, k int, _ int64) []graph.V {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	covered := make([]bool, n)
	chosen := make([]graph.V, 0, k)
	isChosen := make([]bool, n)
	order := g.TotalDegreeOrder()
	for len(chosen) < k {
		best := graph.V(-1)
		bestScore := -1
		// Scanning in degree order lets us stop early: a vertex's degree
		// bounds its score.
		for _, v := range order {
			if isChosen[v] {
				continue
			}
			if g.Degree(v) <= bestScore {
				break
			}
			score := 0
			if !covered[v] {
				score++
			}
			for _, w := range g.Neighbors(v) {
				if !covered[w] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		isChosen[best] = true
		covered[best] = true
		for _, w := range g.Neighbors(best) {
			covered[w] = true
		}
	}
	// Pad with highest-degree unchosen vertices if coverage saturated.
	for _, v := range order {
		if len(chosen) == k {
			break
		}
		if !isChosen[v] {
			chosen = append(chosen, v)
			isChosen[v] = true
		}
	}
	return chosen
}
