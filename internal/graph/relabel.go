package graph

import "fmt"

// Vertex relabeling for cache locality. BFS-heavy query workloads touch
// adjacency lists of vertices discovered together; renumbering vertices
// so that high-degree hubs (touched by almost every query) occupy a
// dense id prefix — and their adjacency a contiguous memory prefix —
// measurably improves query time. This addresses the main memory-layout
// gap between a straightforward port and the paper's tuned C++
// implementation; the `BenchmarkAblationRelabel` benchmark quantifies
// it.

// Relabel renumbers vertices: perm[old] = new. perm must be a
// permutation of [0, |V|). Both CSRs of a digraph are permuted.
func Relabel(g *Graph, perm []V) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation has %d entries for %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation")
		}
		seen[p] = true
	}
	return g.mapped(perm, n, true), nil
}

// RelabelByDegree renumbers vertices in descending degree order and
// returns the relabeled graph plus the permutation (perm[old] = new).
// Queries against the relabeled graph must translate ids through perm;
// the inverse mapping is returned as orig (orig[new] = old).
func RelabelByDegree(g *Graph) (relabeled *Graph, perm, orig []V) {
	order := g.TotalDegreeOrder()
	n := g.NumVertices()
	perm = make([]V, n)
	orig = make([]V, n)
	for newID, old := range order {
		perm[old] = V(newID)
		orig[newID] = old
	}
	relabeled, err := Relabel(g, perm)
	if err != nil {
		panic(err) // perm is a permutation by construction
	}
	return relabeled, perm, orig
}

// RelabelByBFS renumbers vertices in BFS discovery order from the
// highest-degree vertex (a Cuthill–McKee-flavoured layout that places
// neighbourhoods contiguously). Unreached vertices keep their relative
// order after all reached ones.
func RelabelByBFS(g *Graph) (relabeled *Graph, perm, orig []V) {
	n := g.NumVertices()
	perm = make([]V, n)
	orig = make([]V, 0, n)
	for i := range perm {
		perm[i] = -1
	}
	start := g.TopDegreeVertices(1)
	assign := func(v V) {
		perm[v] = V(len(orig))
		orig = append(orig, v)
	}
	if len(start) > 0 {
		queue := []V{start[0]}
		assign(start[0])
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.Neighbors(u) {
				if perm[w] < 0 {
					assign(w)
					queue = append(queue, w)
				}
			}
		}
	}
	for v := V(0); v < V(n); v++ {
		if perm[v] < 0 {
			assign(v)
		}
	}
	relabeled, err := Relabel(g, perm)
	if err != nil {
		panic(err)
	}
	return relabeled, perm, orig
}
