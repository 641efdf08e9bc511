package graph

import (
	"math"
	"math/bits"
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
// first m draws are replayed into the CSR (erBuild), whose squeeze drops
// the repeats; topUp then replaces those from the same stream, in place.
func ErdosRenyi(n, m int, seed int64) *Graph {
	m = max(min(m, n*(n-1)/2), 0)
	g, s := erBuild(n, m, seed, false)
	var both []uint64 // an edge is an entry in each endpoint's list
	topUp(m-g.NumEdges(), s.pair, g.HasEdge, func(keys []uint64) {
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
	g, s := erBuild(n, m, seed, true)
	topUp(m-g.NumArcs(), s.pair, g.HasEdge, func(keys []uint64) {
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
// distributions like web graphs. The pending arcs are the sample space:
// a uniform arc's head is a target weighted by in-degree, its tail a
// source weighted by out-degree.
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
	b.edges = make([]Edge, 0, seedSize+2*m*(n-seedSize))
	for u := 0; u < seedSize; u++ {
		b.AddEdge(V(u), V((u+1)%seedSize))
	}
	for v := seedSize; v < n; v++ {
		for i := 0; i < m; i++ {
			b.AddEdge(V(v), b.edges[rng.Intn(len(b.edges))].W)
			b.AddEdge(b.edges[rng.Intn(len(b.edges))].U, V(v))
		}
	}
	return b.MustBuild()
}

// topUp continues an Erdős–Rényi draw stream past the m draws a graph
// was built from, until the deficit pairs its squeeze dropped as
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

// erBuild builds the graph of the first m draws of the Erdős–Rényi
// stream of seed over n vertices without holding them: one pass over the
// stream counts each row's entries, a second, reseeded, draws the same
// pairs again and scatters them into the rows, and closeRows squeezes
// the repeats out. It returns the graph and the stream continued past
// its m draws.
func erBuild(n, m int, seed int64, directed bool) (*Graph, *erStream) {
	blocks := make([][]Edge, min(erBlocks, (m+erBlock-1)/erBlock))
	for i := range blocks {
		blocks[i] = make([]Edge, min(m, erBlock))
	}
	out := make([]int64, n+1)
	in := out
	if directed {
		in = make([]int64, n+1)
	}
	replayER(newERStream(n, seed, directed), m, blocks, func(pairs []Edge) {
		countRows(out, pairs, true, !directed)
		if directed {
			countRows(in, pairs, false, true)
		}
	})
	adj := openRows(out)
	inAdj := adj
	if directed {
		inAdj = openRows(in)
	}
	s := newERStream(n, seed, directed)
	replayER(s, m, blocks, func(pairs []Edge) {
		scatterRows(out, adj, pairs, true, !directed)
		if directed {
			scatterRows(in, inAdj, pairs, false, true)
		}
	})
	workers := csrWorkers(m)
	out, adj = closeRows(out, adj, workers)
	if !directed {
		return undirected(out, adj), s
	}
	in, inAdj = closeRows(in, inAdj, workers)
	return &Graph{offsets: out, adj: adj, inOff: in, in: inAdj, directed: true}, s
}

const (
	erBlock  = 1 << 14 // pairs in a block of the replayed stream
	erBlocks = 3       // blocks in flight: one drawn, one used, one queued
)

// replayER draws the next m pairs of s on a goroutine of its own, into
// one of blocks at a time, and hands each block to use in order on the
// caller's goroutine while the next one is drawn. use may not keep a
// block. s is the caller's again when replayER returns.
func replayER(s *erStream, m int, blocks [][]Edge, use func(pairs []Edge)) {
	// Each channel can hold every block, so no send waits: the drawer
	// waits only for a free block, the caller only for a full one.
	free := make(chan []Edge, len(blocks))
	full := make(chan []Edge, len(blocks))
	for _, b := range blocks {
		free <- b
	}
	go func() {
		for left := m; left > 0; {
			b := <-free
			b = b[:min(left, len(b))]
			for i := range b {
				b[i] = s.pair()
			}
			full <- b
			left -= len(b)
		}
		close(full)
	}()
	for b := range full {
		use(b)
		free <- b[:cap(b)]
	}
}

// erStream is the Erdős–Rényi draw stream of a seed over n vertices:
// uniform pairs, self-loops redrawn, normalised unless directed. Each
// endpoint is one math/rand Intn(n) draw.
type erStream struct {
	intn     intn
	directed bool
}

func newERStream(n int, seed int64, directed bool) *erStream {
	// An empty graph draws nothing, but its stream is made all the same.
	return &erStream{intn: newIntn(rand.NewSource(seed), max(n, 1)), directed: directed}
}

func (s *erStream) pair() Edge {
	for {
		u, w := s.intn.next(), s.intn.next()
		if u != w {
			if s.directed {
				return Edge{u, w}
			}
			return Edge{min(u, w), max(u, w)} // Normalize, without a branch to mispredict
		}
	}
}

// intn draws rand.New(src).Intn(n)'s stream with Int31n's two per-draw
// divisions hoisted: the rejection bound is computed once, and the
// remainder is Lemire's multiply-high form (Lemire, Kaser and Kurz,
// "Faster remainder by direct computation", 2019), exact for 32-bit
// values. When n is a power of two, Int31n masks instead and rejects
// nothing: that is the bound 2³¹−1 and the same remainder. n must be in
// [1, 2³¹).
type intn struct {
	src   rand.Source
	max   int32 // the largest Int31 accepted
	n     uint64
	recip uint64 // ⌈2⁶⁴/n⌉ mod 2⁶⁴: v mod n is the high word of (recip·v mod 2⁶⁴)·n
}

func newIntn(src rand.Source, n int) intn {
	if n <= 0 || n > math.MaxInt32 {
		panic("graph: intn bound out of range")
	}
	return intn{
		src:   src,
		max:   int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		n:     uint64(n),
		recip: math.MaxUint64/uint64(n) + 1,
	}
}

func (r *intn) next() V {
	v := int32(r.src.Int63() >> 32) // Rand.Int31
	for v > r.max {
		v = int32(r.src.Int63() >> 32)
	}
	hi, _ := bits.Mul64(r.recip*uint64(v), r.n)
	return V(hi)
}

// BarabasiAlbert generates a preferential-attachment graph: vertices
// arrive one at a time and attach m edges to existing vertices chosen
// proportionally to degree, producing the power-law hub structure that
// characterises the paper's social and web datasets. The first m+1
// vertices form a clique seed.
//
// The pending edges are the sample space: a uniform endpoint of a
// uniform edge is a vertex drawn proportionally to its degree, so the
// edges are kept in the order they are drawn, Edge{v, t} as it arrives
// (the undirected constructor does not care which end is which).
func BarabasiAlbert(n, m int, seed int64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	seedSize := m + 1
	if seedSize > n {
		seedSize = n
	}
	b.edges = make([]Edge, 0, seedSize*(seedSize-1)/2+m*(n-seedSize))
	for u := 0; u < seedSize; u++ {
		for w := u + 1; w < seedSize; w++ {
			b.edges = append(b.edges, Edge{V(u), V(w)})
		}
	}
	targets := make([]V, 0, m)
	for v := seedSize; v < n; v++ {
		targets = targets[:0]
		for attempts := 0; len(targets) < m && attempts < 32*m; attempts++ {
			r := rng.Intn(2 * len(b.edges))
			e := b.edges[r>>1]
			t := e.U
			if r&1 == 1 {
				t = e.W
			}
			if !containsV(targets, t) {
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			b.edges = append(b.edges, Edge{V(v), t})
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
// Figure 8). A directed g gains arcs from its hubs.
func HubBoost(g *Graph, h, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	hubs := g.TopDegreeVertices(h)
	keys := make([]uint64, 0, 2*len(hubs)*extra)
	for _, hub := range hubs {
		for i := 0; i < extra; i++ {
			if w := V(rng.Intn(n)); w != hub {
				keys = append(keys, pairKey(hub, w))
			}
		}
	}
	return g.withPairs(keys)
}

// Union overlays two graphs of one orientation on the same vertex set,
// merging their edge sets. It is used to mix generator outputs (e.g.
// BA + ER for the Orkut-like analog: dense but with moderate skew). Each
// row of the result is the merge of the two rows, deduplicated as it is
// written, so nothing but the result is allocated.
func Union(a, b *Graph) *Graph {
	if a.directed != b.directed {
		panic("graph: Union of a directed and an undirected graph")
	}
	n := max(a.NumVertices(), b.NumVertices())
	offsets, adj := unionRows(n, a.offsets, a.adj, b.offsets, b.adj)
	if !a.directed {
		return undirected(offsets, adj)
	}
	inOff, in := unionRows(n, a.inOff, a.in, b.inOff, b.in)
	return &Graph{offsets: offsets, adj: adj, inOff: inOff, in: in, directed: true}
}

// TriadicClosure adds up to count edges closing open triangles (two
// vertices sharing a neighbour), raising clustering to emulate
// co-authorship networks such as DBLP.
func TriadicClosure(g *Graph, count int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	keys := make([]uint64, 0, 2*count)
	for attempts := 0; len(keys) < count && attempts < 20*count; attempts++ {
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
		keys = append(keys, pairKey(a, c))
	}
	return g.withPairs(keys)
}

// withPairs returns g with the edges (arcs, when directed) u→w of keys
// added, pairKeys in any order and with room to append as many again;
// they may repeat each other and g's. They are sorted and deduplicated,
// both ways unless g is directed, the way the Erdős–Rényi top-up sorts
// its keys, and merged into a copy of g's rows (addRows): the new graph
// and the keys are all it allocates.
func (g *Graph) withPairs(keys []uint64) *Graph {
	flip := func(keys []uint64) {
		for i, k := range keys {
			keys[i] = k<<32 | k>>32
		}
	}
	if !g.directed {
		m := len(keys)
		keys = append(keys, keys...)
		flip(keys[m:])
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	offsets, adj := addRows(g.offsets, g.adj, keys)
	if !g.directed {
		return undirected(offsets, adj)
	}
	flip(keys)
	slices.Sort(keys)
	inOff, in := addRows(g.inOff, g.in, keys)
	return &Graph{offsets: offsets, adj: adj, inOff: inOff, in: in, directed: true}
}
