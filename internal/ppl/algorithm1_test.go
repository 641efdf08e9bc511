package ppl

import (
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// TestPaperAlgorithm1Counterexample documents why this package deviates
// from the paper's Algorithm 1 as printed. The literal algorithm stops
// BFS expansion at a vertex u whenever d_{L_{k-1}}(v_k, u) = depth[u];
// vertices beyond u then never receive the label (v_k, ·) even when the
// 2-hop path cover (Definition 3.2) requires it. On the 5×5 grid with
// the paper's descending-degree order, the pair (0, 12) ends up with
// vertex 6 as its only common minimizing landmark, so the query
// recursion reconstructs only the shortest paths through vertex 6 and
// loses e.g. 0–1–2–7–12 — the answer is wrong.
//
// The test builds the literal labelling and shows the failure, then
// verifies the corrected canonical labelling answers the same query
// exactly.
func TestPaperAlgorithm1Counterexample(t *testing.T) {
	g := graph.Grid(5, 5)
	lit := buildLiteralAlgorithm1(g)
	u, v := graph.V(0), graph.V(12)

	want := bfs.OracleSPG(g, u, v)
	got := lit.Query(u, v)
	if got.Equal(want) {
		t.Fatalf("expected the literal Algorithm 1 to fail on SPG(0,12); " +
			"if this now passes, the counterexample is stale and the package " +
			"doc comment should be updated")
	}
	// The corrected labelling must answer exactly.
	fixed := MustBuild(g, Options{})
	if got := fixed.Query(u, v); !got.Equal(want) {
		t.Fatalf("corrected PPL wrong: got %v want %v", got, want)
	}
}

// buildLiteralAlgorithm1 constructs the paper's Algorithm 1 labelling
// verbatim: prune (no label, no expansion) when d_{L_{k-1}} < depth, add
// a label always otherwise, and stop expansion when d_{L_{k-1}} = depth.
func buildLiteralAlgorithm1(g *graph.Graph) *Index {
	n := g.NumVertices()
	ix := &Index{
		g:      g,
		order:  g.TotalDegreeOrder(),
		rankOf: make([]int32, n),
		labels: make([][]entry, n),
	}
	for rank, v := range ix.order {
		ix.rankOf[v] = int32(rank)
	}
	depth := make([]int32, n)
	rootDist := make([]int32, n)
	for i := range depth {
		depth[i] = -1
		rootDist[i] = -1
	}
	for rank := 0; rank < n; rank++ {
		root := ix.order[rank]
		var loaded []int32
		for _, e := range ix.labels[root] {
			rootDist[e.rank] = e.dist
			loaded = append(loaded, e.rank)
		}
		distL := func(u graph.V) int32 {
			best := graph.InfDist
			for _, e := range ix.labels[u] {
				if rd := rootDist[e.rank]; rd >= 0 && rd+e.dist < best {
					best = rd + e.dist
				}
			}
			return best
		}
		var visited []graph.V
		depth[root] = 0
		visited = append(visited, root)
		queue := []graph.V{root}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			dl := distL(u)
			if dl < depth[u] {
				continue
			}
			ix.labels[u] = append(ix.labels[u], entry{rank: int32(rank), dist: depth[u]})
			ix.numEntries++
			if dl == depth[u] {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if depth[w] < 0 {
					depth[w] = depth[u] + 1
					visited = append(visited, w)
					queue = append(queue, w)
				}
			}
		}
		for _, v := range visited {
			depth[v] = -1
		}
		for _, r := range loaded {
			rootDist[r] = -1
		}
	}
	return ix
}
