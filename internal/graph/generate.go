package graph

import (
	"math/rand"
	"slices"
)

// Generators for synthetic networks. Every generator takes an explicit
// seed and is deterministic for a given (parameters, seed) pair, which
// the experiment harness relies on for reproducibility.
//
// The generators return graphs that may be disconnected; dataset analogs
// call LargestComponent to match the paper's connectivity assumption.

// ErdosRenyi generates G(n, m): m undirected edges sampled uniformly at
// random without replacement (rejection-sampled), yielding a flat,
// near-Poisson degree distribution. This is the building block for the
// Friendster-like analog, whose defining property in the paper is an
// evenly distributed degree sequence (§6.3).
//
// The edge set is the first m distinct pairs of the draw stream. The
// first m draws go to the builder as they are, whose squeeze drops the
// repeats; topUp then replaces those from the same stream, in place.
func ErdosRenyi(n, m int, seed int64) *Graph {
	m = max(min(m, n*(n-1)/2), 0)
	b := NewBuilder(n)
	var draw func() Edge
	b.edges, draw = erDraws(n, m, seed, false)
	g := b.MustBuild()
	var both []uint64 // an edge is an entry in each endpoint's list
	topUp(m-g.NumEdges(), draw, g.HasEdge, func(keys []uint64) {
		both = append(both[:0], keys...)
		for _, k := range keys {
			both = append(both, k<<32|k>>32)
		}
		slices.Sort(both)
		g.adj = insertCSR(g.offsets, g.adj, both)
		g.in = g.adj
	})
	return g
}

// DirectedErdosRenyi samples m distinct directed arcs uniformly: the
// first m distinct arcs of the draw stream, sampled as ErdosRenyi
// samples edges (each kept arc enters the out- and the in-CSR).
func DirectedErdosRenyi(n, m int, seed int64) *Graph {
	m = max(min(m, n*(n-1)), 0)
	b := NewDirectedBuilder(n)
	var draw func() Edge
	b.edges, draw = erDraws(n, m, seed, true)
	g := b.MustBuild()
	topUp(m-g.NumArcs(), draw, g.HasEdge, func(keys []uint64) {
		g.adj = insertCSR(g.offsets, g.adj, keys)
		for i, k := range keys {
			keys[i] = k<<32 | k>>32
		}
		slices.Sort(keys)
		g.in = insertCSR(g.inOff, g.in, keys)
	})
	return g
}

// DirectedScaleFree grows a digraph by preferential attachment: each new
// vertex adds m out-arcs to targets weighted by in-degree and m in-arcs
// from sources weighted by out-degree, yielding hubby in/out degree
// distributions like web graphs.
func DirectedScaleFree(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewDirectedBuilder(n)
	seedSize := m + 1
	if seedSize > n {
		seedSize = n
	}
	// Every arc appends once to each of the three lists.
	arcs := seedSize + 2*m*(n-seedSize)
	b.edges = make([]Edge, 0, arcs)
	inRep, outRep := make([]V, 0, arcs), make([]V, 0, arcs)
	for u := 0; u < seedSize; u++ {
		w := (u + 1) % seedSize
		if u != w {
			b.AddEdge(V(u), V(w))
			outRep = append(outRep, V(u))
			inRep = append(inRep, V(w))
		}
	}
	for v := seedSize; v < n; v++ {
		for i := 0; i < m; i++ {
			t := inRep[rng.Intn(len(inRep))]
			if t != V(v) {
				b.AddEdge(V(v), t)
				outRep = append(outRep, V(v))
				inRep = append(inRep, t)
			}
			s := outRep[rng.Intn(len(outRep))]
			if s != V(v) {
				b.AddEdge(s, V(v))
				outRep = append(outRep, s)
				inRep = append(inRep, V(v))
			}
		}
	}
	return b.MustBuild()
}

// erDraws returns the first m draws of the Erdős–Rényi stream of seed
// over n vertices — uniform pairs, self-loops redrawn, normalised unless
// directed — and the stream's continuation.
func erDraws(n, m int, seed int64, directed bool) ([]Edge, func() Edge) {
	rng := rand.New(rand.NewSource(seed))
	draw := func() Edge {
		for {
			p := Edge{V(rng.Intn(n)), V(rng.Intn(n))}
			if p.U != p.W {
				if !directed {
					p = p.Normalize()
				}
				return p
			}
		}
	}
	pairs := make([]Edge, m)
	for i := range pairs {
		pairs[i] = draw()
	}
	return pairs, draw
}

// topUp continues an Erdős–Rényi draw stream past the m draws a graph
// was built from, until the deficit pairs its builder squeezed out as
// repeats are replaced by new ones. It runs in rounds of deficit draws:
// a draw already in the graph (has) is dropped, the rest are sorted and
// deduplicated as pairKeys and handed to insert, which may reorder them
// but not keep them. A round adds at most one pair per draw, so it never
// overshoots, and the graph ends as the distinct pairs of the shortest
// prefix of the stream that holds m of them: the set a membership test
// on every draw would keep, at the cost of the kept pairs alone.
func topUp(deficit int, draw func() Edge, has func(u, w V) bool, insert func(keys []uint64)) {
	keys := make([]uint64, 0, deficit)
	for deficit > 0 {
		keys = keys[:0]
		for i := 0; i < deficit; i++ {
			if p := draw(); !has(p.U, p.W) {
				keys = append(keys, pairKey(p.U, p.W))
			}
		}
		if len(keys) == 0 {
			continue
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		deficit -= len(keys)
		insert(keys)
	}
}

// BarabasiAlbert generates a preferential-attachment graph: vertices
// arrive one at a time and attach m edges to existing vertices chosen
// proportionally to degree, producing the power-law hub structure that
// characterises the paper's social and web datasets. The first m+1
// vertices form a clique seed.
func BarabasiAlbert(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// repeated holds one entry per arc endpoint; sampling uniformly from
	// it is sampling proportionally to degree.
	repeated := make([]V, 0, 2*m*n)
	seedSize := m + 1
	if seedSize > n {
		seedSize = n
	}
	b.edges = make([]Edge, 0, seedSize*(seedSize-1)/2+m*(n-seedSize))
	for u := 0; u < seedSize; u++ {
		for w := u + 1; w < seedSize; w++ {
			b.AddEdge(V(u), V(w))
			repeated = append(repeated, V(u), V(w))
		}
	}
	targets := make([]V, 0, m)
	for v := seedSize; v < n; v++ {
		targets = targets[:0]
		for attempts := 0; len(targets) < m && attempts < 32*m; attempts++ {
			t := repeated[rng.Intn(len(repeated))]
			if !containsV(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.AddEdge(V(v), t)
			repeated = append(repeated, V(v), t)
		}
	}
	return b.MustBuild()
}

func containsV(s []V, x V) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

// WattsStrogatz generates a small-world ring lattice on n vertices where
// each vertex connects to its k nearest ring neighbours and each edge is
// rewired with probability beta. Used for locality-flavoured analogs
// (computer topologies such as Skitter).
func WattsStrogatz(n, k int, beta float64, seed int64) *Graph {
	if k%2 == 1 {
		k++
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			w := (u + j) % n
			if rng.Float64() < beta {
				w = rng.Intn(n)
				for w == u {
					w = rng.Intn(n)
				}
			}
			b.AddEdge(V(u), V(w))
		}
	}
	return b.MustBuild()
}

// Grid generates an rows×cols 4-neighbour lattice — the road-network-like
// fixture (high diameter, no hubs) used in tests to exercise QbS on
// structure opposite to complex networks.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) V { return V(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// Path generates the path graph 0–1–…–(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(V(i), V(i+1))
	}
	return b.MustBuild()
}

// Cycle generates the cycle graph on n vertices.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(V(i), V((i+1)%n))
	}
	return b.MustBuild()
}

// Star generates a star with vertex 0 as the centre.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, V(i))
	}
	return b.MustBuild()
}

// Complete generates the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			b.AddEdge(V(u), V(w))
		}
	}
	return b.MustBuild()
}

// HubBoost adds extra edges from the h highest-degree vertices to
// uniformly random vertices until each selected hub gains roughly extra
// additional neighbours. This sharpens degree skew, emulating networks
// such as Twitter or WikiTalk whose few extreme hubs dominate shortest
// paths (the property behind the paper's high pair-coverage ratios in
// Figure 8).
func HubBoost(g *Graph, h, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	hubs := g.TopDegreeVertices(h)
	b := NewBuilder(n)
	b.addGraph(g, len(hubs)*extra)
	for _, hub := range hubs {
		for i := 0; i < extra; i++ {
			w := V(rng.Intn(n))
			if w != hub {
				b.AddEdge(hub, w)
			}
		}
	}
	return b.MustBuild()
}

// Union overlays two graphs on the same vertex set, merging their edge
// sets. It is used to mix generator outputs (e.g. BA + ER for the
// Orkut-like analog: dense but with moderate skew).
func Union(a, b *Graph) *Graph {
	n := a.NumVertices()
	if b.NumVertices() > n {
		n = b.NumVertices()
	}
	bl := NewBuilder(n)
	bl.addGraph(a, b.NumEdges())
	bl.addGraph(b, 0)
	return bl.MustBuild()
}

// TriadicClosure adds up to count edges closing open triangles (two
// vertices sharing a neighbour), raising clustering to emulate
// co-authorship networks such as DBLP.
func TriadicClosure(g *Graph, count int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	b := NewBuilder(n)
	b.addGraph(g, count)
	added := 0
	for attempts := 0; added < count && attempts < 20*count; attempts++ {
		u := V(rng.Intn(n))
		ns := g.Neighbors(u)
		if len(ns) < 2 {
			continue
		}
		a := ns[rng.Intn(len(ns))]
		c := ns[rng.Intn(len(ns))]
		if a == c || g.HasEdge(a, c) {
			continue
		}
		b.AddEdge(a, c)
		added++
	}
	return b.MustBuild()
}
