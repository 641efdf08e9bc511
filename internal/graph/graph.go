// Package graph provides the static graph substrate used throughout the
// Query-by-Sketch (QbS) reproduction: a compressed sparse row (CSR)
// representation of an unweighted graph, undirected or directed, an
// incremental builder, text edge-list I/O, synthetic network generators,
// and basic structural statistics.
//
// All algorithms in this repository (the QbS index, the PPL/ParentPPL
// baselines and the search baselines) operate on the immutable Graph type
// defined here. Vertices are dense int32 identifiers in [0, NumVertices).
//
// # One type for both orientations
//
// A Graph holds an out-CSR and an in-CSR and a Directed bit. An
// undirected graph is the symmetric digraph: each edge {u, w} is the arcs
// u→w and w→u, and its in-CSR is the same pair of slices as its
// out-CSR, so it costs no byte more than one CSR. OutView and InView
// then return the same Adjacency value, which is how the QbS engine
// (internal/core) knows the graph is symmetric.
//
// # Construction
//
// A graph built from pairs — by the Builder, the reader and the
// generators — goes through one constructor, buildCSR (csr.go), over the
// pending pairs. An undirected graph is one call that enters each pair
// into both endpoints' lists; a directed one is two calls, the out-CSR
// from (From, To) and the in-CSR from (To, From). Its passes:
//
//  1. validate every endpoint against [0, n) and count degrees
//     (countRows);
//  2. prefix-sum the counts into offsets and allocate the rows
//     (openRows);
//  3. scatter each pair into its list(s) (scatterRows);
//  4. per vertex: sort the list (slices.Sort on []int32, skipped when it
//     arrived strictly increasing) and squeeze duplicates out in place
//     (closeRows);
//  5. only if step 4 dropped something, compact the lists and rewrite
//     the offsets.
//
// That is O(m + Σ_v d(v)·log d(v)) time with no global sort, no
// comparator closure and no copy of the pending pairs; beyond the CSR
// arrays themselves it allocates nothing. Step 4, where the time goes,
// fans out over vertex ranges on up to GOMAXPROCS goroutines (one per
// 64 Ki pairs at most, so small graphs are built inline); steps 1-3 and
// 5 are sequential — splitting them over per-worker degree histograms
// was measured and bought under 10 % of the constructor on two cores.
//
// The result is deterministic at any width and for any order of the
// pending pairs: the sorted list of v's distinct neighbours is a
// function of the multiset of arcs alone, not of the order they were
// scattered or the ranges they were sorted in, and the offsets are the
// prefix sums of those lists' lengths. Sort-based reference builders in
// csr_test.go are the oracle (TestBuildMatchesReference, FuzzBuilder),
// and internal/datasets pins the bytes of every dataset analog
// (TestAnalogFingerprints).
//
// Past a builder's own pending pairs, no generator and no graph-to-graph
// pass holds a second copy of a graph next to the CSR it builds:
//
//   - The Erdős–Rényi samplers keep no pair list. Their draw stream is
//     replayed (erBuild): steps 1-2 run over a first pass of the seeded
//     stream, step 3 over a second, reseeded one, each drawn a block at
//     a time on a goroutine of its own while the caller counts or
//     scatters the block before. The draw is math/rand's Intn with its
//     divisions hoisted (intn, TestIntnIsMathRands).
//   - BarabasiAlbert and DirectedScaleFree sample endpoints from their
//     pending edges themselves, the pairs buildCSR then runs over: no
//     list of endpoints beside them.
//   - Union merges its operands' sorted rows, HubBoost and
//     TriadicClosure merge g's rows with their few new entries sorted as
//     pairKeys (mergeCSR): each row is merged once to count and once to
//     write, deduplicated as it is written.
//   - InducedSubgraph, LargestComponent and Relabel map g's rows through
//     a vertex remap (mapRows); the first two keep the order of the
//     vertices they keep, so their rows stay sorted, and Relabel sorts
//     each row it writes. Each pass keeps a digraph's orientation, both
//     CSRs mapped the same way.
//
// Each of these allocates the CSR it returns and little else
// (TestErdosRenyiAllocatesItsCSR,
// TestPreferentialAttachmentAllocatesEdgesAndCSR,
// TestMergesAllocateTheirCSR).
//
// A built CSR is edited in one place: the Erdős–Rényi top-up (topUp,
// insertCSR). The samplers scatter their first m draws without a
// membership test, and step 5 leaves adj's backing array at its full
// length with one free slot per duplicate it dropped, so the pairs drawn
// to replace the repeats fit into exactly that capacity: the rows are
// merged in place from the last one back. The graph is then the first m
// distinct pairs of the draw stream, as if every draw had been tested
// (TestErdosRenyiMatchesFirstDistinctDraws).
package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
)

// V is the vertex identifier type. Vertices are dense integers in
// [0, NumVertices). int32 keeps adjacency arrays compact, which matters
// for the cache behaviour of BFS-heavy workloads.
type V = int32

// Edge is an undirected edge between two vertices, or in a directed
// context the arc U→W. Normalised edges have U <= W.
type Edge struct {
	U, W V
}

// Normalize returns the edge with endpoints ordered so that U <= W.
func (e Edge) Normalize() Edge {
	if e.U > e.W {
		return Edge{e.W, e.U}
	}
	return e
}

// Arc is a directed edge From → To.
type Arc struct {
	From, To V
}

// Graph is an immutable unweighted graph in CSR form, undirected or
// directed (the package doc has the layout). An undirected edge {u, w}
// is stored as the two arcs u→w and w→u.
//
// The zero value is an empty undirected graph. Construct graphs with a
// Builder, one of the generators, or the reader.
type Graph struct {
	offsets []int64 // len = n+1; the out-list of v is adj[offsets[v]:offsets[v+1]]
	adj     []V     // concatenated, per-vertex sorted out-neighbour lists
	// inOff and in are the in-CSR, laid out the same way; an undirected
	// graph's are offsets and adj themselves.
	inOff    []int64
	in       []V
	directed bool
}

// undirected adopts one CSR as both of a graph's adjacencies.
func undirected(offsets []int64, adj []V) *Graph {
	return &Graph{offsets: offsets, adj: adj, inOff: offsets, in: adj}
}

// Directed reports whether the graph is directed: whether its in-CSR is
// its own rather than its out-CSR.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E|: the number of undirected edges, or of arcs when
// the graph is directed.
func (g *Graph) NumEdges() int {
	if g.directed {
		return len(g.adj)
	}
	return len(g.adj) / 2
}

// NumArcs returns the number of stored arcs (2·|E| for undirected graphs).
func (g *Graph) NumArcs() int { return len(g.adj) }

// Degree returns the number of out-neighbours of v (its neighbours, when
// undirected).
func (g *Graph) Degree(v V) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted out-neighbour list of v (its neighbours,
// when undirected). The returned slice aliases the graph's internal
// storage and must not be modified.
func (g *Graph) Neighbors(v V) []V {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// InDegree returns the number of in-neighbours of v.
func (g *Graph) InDegree(v V) int { return int(g.inOff[v+1] - g.inOff[v]) }

// In returns the sorted in-neighbour list of v (do not modify).
func (g *Graph) In(v V) []V { return g.in[g.inOff[v]:g.inOff[v+1]] }

// HasEdge reports whether the arc u→w exists (the edge {u, w}, when
// undirected). It searches the shorter of u's out-list and w's in-list
// (inRow).
func (g *Graph) HasEdge(u, w V) bool {
	if u == w {
		return false
	}
	if g.Degree(u) > g.InDegree(w) {
		return inRow(g.In(w), u, g.NumVertices())
	}
	return inRow(g.Neighbors(u), w, g.NumVertices())
}

// Edges returns each edge once, sorted: an undirected graph's edges
// normalised (U <= W), a digraph's arcs U→W. It allocates a fresh slice
// of length NumEdges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Neighbors(u) {
			if g.directed || u < w {
				out = append(out, Edge{u, w})
			}
		}
	}
	return out
}

// Arcs returns every stored arc sorted by (From, To): both orientations
// of an undirected edge.
func (g *Graph) Arcs() []Arc {
	arcs := make([]Arc, 0, g.NumArcs())
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Neighbors(u) {
			arcs = append(arcs, Arc{u, w})
		}
	}
	return arcs
}

// MaxDegree returns the largest (out-)degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(V(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average (out-)degree, |arcs| / |V|, or 0 for an
// empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(g.NumVertices())
}

// SizeBytes reports the in-memory footprint of the adjacency structure
// using the paper's accounting for Table 1: each arc appears in an
// adjacency list and is charged 8 bytes.
func (g *Graph) SizeBytes() int64 { return int64(g.NumArcs()) * 8 }

// TotalDegreeOrder returns all vertices by descending in+out degree,
// ties by ascending id (making the order deterministic). An undirected
// vertex's total degree is twice its degree, so this is its degree
// order.
func (g *Graph) TotalDegreeOrder() []V {
	return orderByDegree(g.NumVertices(), g.totalDegree)
}

// TopDegreeVertices returns the first k vertices of TotalDegreeOrder
// (all of them if k exceeds |V|) without sorting the rest — the default
// landmarks.
func (g *Graph) TopDegreeVertices(k int) []V {
	return topByDegree(g.NumVertices(), k, g.totalDegree)
}

func (g *Graph) totalDegree(v int) int { return g.Degree(V(v)) + g.InDegree(V(v)) }

// degreeKey packs (degree, flipped id) so that ascending key order is
// ascending degree with ties by descending id — the reverse of the
// landmark order, sortable with the specialised ordered-slice sort
// instead of a comparator.
func degreeKey(degree, v int) uint64 {
	return uint64(degree)<<32 | uint64(uint32(math.MaxInt32-v))
}

func keyVertex(k uint64) V { return V(math.MaxInt32 - int32(uint32(k))) }

// orderByDegree returns [0, n) by descending degree, ties by ascending
// id. Landmark selection runs this on every build, so it is kept off the
// comparator-sort slow path.
func orderByDegree(n int, degree func(v int) int) []V {
	keys := make([]uint64, n)
	for v := range keys {
		keys[v] = degreeKey(degree(v), v)
	}
	slices.Sort(keys)
	vs := make([]V, n)
	for i, k := range keys {
		vs[n-1-i] = keyVertex(k)
	}
	return vs
}

// topByDegree is orderByDegree(n, degree)[:k] (all n if k exceeds it).
// Small k (landmark selection's k ≪ n) uses an O(n log k) min-heap
// selection instead of sorting every vertex.
func topByDegree(n, k int, degree func(v int) int) []V {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if k*16 >= n {
		return orderByDegree(n, degree)[:k]
	}
	// Min-heap of packed keys: the root is the current worst of the best
	// k, ejected when a better key arrives.
	heap := make([]uint64, 0, k)
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && heap[c+1] < heap[c] {
				c++
			}
			if heap[i] <= heap[c] {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for v := 0; v < n; v++ {
		kv := degreeKey(degree(v), v)
		if len(heap) < k {
			heap = append(heap, kv)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if heap[p] <= heap[i] {
					break
				}
				heap[p], heap[i] = heap[i], heap[p]
				i = p
			}
		} else if kv > heap[0] {
			heap[0] = kv
			siftDown(0)
		}
	}
	slices.Sort(heap)
	out := make([]V, k)
	for i, kv := range heap {
		out[k-1-i] = keyVertex(kv)
	}
	return out
}

// Validate checks the invariants of both CSRs: offsets are monotone,
// neighbour lists are sorted, free of self-loops and duplicates, and
// every arc u→w is in w's in-list — for an undirected graph, every arc
// has its reverse. It is used by tests.
func (g *Graph) Validate() error {
	if err := g.ValidateStructure(); err != nil {
		return err
	}
	n := g.NumVertices()
	for u := V(0); u < V(n); u++ {
		for _, w := range g.Neighbors(u) {
			if !inRow(g.In(w), u, n) {
				return fmt.Errorf("graph: arc %d->%d missing from the in-adjacency", u, w)
			}
		}
	}
	return nil
}

// ValidateStructure is the O(n+m) subset of Validate: monotone in-range
// offsets and sorted, in-range, self-loop-free neighbour lists in each
// CSR, and as many in-arcs as out-arcs — every invariant array indexing
// and binary searches rely on, without the per-arc pairing search.
// FromCSR uses it to keep checksummed snapshot loads linear; on large
// graphs the scan fans out across GOMAXPROCS workers (each vertex's
// checks are independent, and a vertex's own offsets are verified before
// its adjacency is sliced).
func (g *Graph) ValidateStructure() error {
	if err := validateCSR(g.offsets, g.adj); err != nil {
		return err
	}
	if !g.directed {
		return nil
	}
	if len(g.inOff) != len(g.offsets) || len(g.in) != len(g.adj) {
		return fmt.Errorf("graph: in-CSR of %d offsets and %d arcs beside %d and %d", len(g.inOff), len(g.in), len(g.offsets), len(g.adj))
	}
	return validateCSR(g.inOff, g.in)
}

func validateCSR(offsets []int64, adj []V) error {
	if len(offsets) == 0 {
		if len(adj) != 0 {
			return fmt.Errorf("graph: adjacency without offsets")
		}
		return nil
	}
	n := len(offsets) - 1
	if offsets[0] != 0 || offsets[n] != int64(len(adj)) {
		return fmt.Errorf("graph: offset endpoints invalid")
	}
	checkRange := func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			if offsets[v] > offsets[v+1] {
				return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
			}
			if offsets[v] < 0 || offsets[v+1] > int64(len(adj)) {
				return fmt.Errorf("graph: offsets out of range at vertex %d", v)
			}
			ns := adj[offsets[v]:offsets[v+1]]
			for i, w := range ns {
				if w < 0 || int(w) >= n {
					return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
				}
				if w == V(v) {
					return fmt.Errorf("graph: self-loop at vertex %d", v)
				}
				if i > 0 && ns[i-1] >= w {
					return fmt.Errorf("graph: unsorted or duplicate neighbour %d of vertex %d", w, v)
				}
			}
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if n < 1<<15 {
		workers = 1
	}
	errs := make([]error, workers)
	forRanges(n, workers, func(w, lo, hi int) { errs[w] = checkRange(lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// OutView returns the forward (out-arc) adjacency as a graph.Adjacency:
// the graph itself.
func (g *Graph) OutView() Adjacency { return g }

// InView returns the backward (in-arc) adjacency: Neighbors(v) are the
// in-neighbours of v, so a BFS over InView computes distances *to* the
// root. For an undirected graph it is OutView's value.
func (g *Graph) InView() Adjacency {
	if !g.directed {
		return g
	}
	return inView{g}
}

// inView adapts a digraph's in-CSR to Adjacency. It is one pointer, so
// converting it to the interface does not allocate.
type inView struct{ g *Graph }

func (a inView) NumVertices() int  { return a.g.NumVertices() }
func (a inView) NumArcs() int      { return a.g.NumArcs() }
func (a inView) Degree(v V) int    { return a.g.InDegree(v) }
func (a inView) Neighbors(v V) []V { return a.g.In(v) }

// AsDirected returns g as a directed graph: a symmetric digraph with
// both arc directions, sharing g's arrays (all of them are immutable).
// Directed algorithms are sanity-checked against their undirected
// counterparts with it.
func AsDirected(g *Graph) *Graph {
	return &Graph{offsets: g.offsets, adj: g.adj, inOff: g.inOff, in: g.in, directed: true}
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are removed. An undirected builder also removes
// reversed duplicates: directed inputs are symmetrised, matching the
// paper's treatment of all datasets as undirected (the |E_un| column of
// Table 1).
type Builder struct {
	n        int
	edges    []Edge // Edge{U, W} is the arc U→W when directed
	directed bool
}

// NewBuilder creates a builder for an undirected graph with n vertices.
// Vertices are implicit: every id in [0, n) is a vertex even if
// isolated.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// NewDirectedBuilder creates a builder for a directed graph with n
// vertices.
func NewDirectedBuilder(n int) *Builder {
	b := NewBuilder(n)
	b.directed = true
	return b
}

// AddEdge records the edge {u, w}, or the arc u→w when the builder is
// directed. Self-loops are ignored. Endpoints outside [0, n) cause Build
// to fail.
func (b *Builder) AddEdge(u, w V) {
	if u == w {
		return
	}
	e := Edge{u, w}
	if !b.directed {
		e = e.Normalize()
	}
	b.edges = append(b.edges, e)
}

// NumPendingEdges returns the number of edges recorded so far, before
// deduplication.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph, deduplicating edges. The
// builder remains usable afterwards (Build may be called again after
// further AddEdge calls).
func (b *Builder) Build() (*Graph, error) {
	workers := csrWorkers(len(b.edges))
	offsets, adj, bad := buildCSR(b.n, b.edges, true, !b.directed, workers)
	if bad >= 0 {
		e := b.edges[bad]
		return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.W, b.n)
	}
	if !b.directed {
		return undirected(offsets, adj), nil
	}
	inOff, in, _ := buildCSR(b.n, b.edges, false, true, workers)
	return &Graph{offsets: offsets, adj: adj, inOff: inOff, in: in, directed: true}, nil
}

// MustBuild is Build that panics on error; intended for tests and
// generators whose inputs are in-range by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds an undirected graph from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.W)
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// FromArcs builds a directed graph from an arc list.
func FromArcs(n int, arcs []Arc) (*Graph, error) {
	b := NewDirectedBuilder(n)
	for _, a := range arcs {
		b.AddEdge(a.From, a.To)
	}
	return b.Build()
}

// MustFromArcs is FromArcs that panics on error.
func MustFromArcs(n int, arcs []Arc) *Graph {
	g, err := FromArcs(n, arcs)
	if err != nil {
		panic(err)
	}
	return g
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true), preserving original vertex ids (vertices not kept become
// isolated) and the orientation. This is the explicit form of the
// paper's sparsified graph G[V\R]; the QbS query path uses an implicit
// representation instead, but the explicit form is useful for tests and
// the ablation benchmarks.
func (g *Graph) InducedSubgraph(keep func(V) bool) *Graph {
	remap := make([]V, g.NumVertices())
	for v := range remap {
		remap[v] = -1
		if keep(V(v)) {
			remap[v] = V(v)
		}
	}
	return g.mapped(remap, len(remap), false)
}

// mapped is mapRows over each of g's CSRs (one, when undirected): the
// graph on k vertices whose vertex remap[u] has u's arcs among the
// vertices remap keeps.
func (g *Graph) mapped(remap []V, k int, sortRows bool) *Graph {
	offsets, adj := mapRows(g.offsets, g.adj, remap, k, sortRows)
	if !g.directed {
		return undirected(offsets, adj)
	}
	inOff, in := mapRows(g.inOff, g.in, remap, k, sortRows)
	return &Graph{offsets: offsets, adj: adj, inOff: inOff, in: in, directed: true}
}

// ConnectedComponents labels each vertex with a component id in
// [0, count) and returns the labels and the component count. Component
// ids are assigned in order of the smallest vertex they contain. A
// digraph's components are its weakly connected ones: arcs are followed
// both ways.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]V, 0, 1024)
	visit := func(ns []V, id int32) {
		for _, w := range ns {
			if labels[w] < 0 {
				labels[w] = id
				queue = append(queue, w)
			}
		}
	}
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[s] = id
		queue = append(queue[:0], V(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			visit(g.Neighbors(u), id)
			if g.directed {
				visit(g.In(u), id)
			}
		}
	}
	return labels, count
}

// LargestComponent returns the subgraph restricted to the largest
// (weakly) connected component with vertices re-numbered densely in
// their original order, together with the mapping from new ids to
// original ids. Generators use it to deliver connected graphs, mirroring
// the paper's assumption of connectivity.
func (g *Graph) LargestComponent() (*Graph, []V) {
	labels, count := g.ConnectedComponents()
	if count <= 1 {
		ids := make([]V, g.NumVertices())
		for i := range ids {
			ids[i] = V(i)
		}
		return g, ids
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	remap := make([]V, g.NumVertices())
	orig := make([]V, 0, sizes[best])
	for v := range remap {
		if labels[v] == int32(best) {
			remap[v] = V(len(orig))
			orig = append(orig, V(v))
		} else {
			remap[v] = -1
		}
	}
	return g.mapped(remap, len(orig), false), orig
}

// Stats summarises a graph for reporting (Table 1 columns).
type Stats struct {
	NumVertices int
	NumEdges    int
	MaxDegree   int
	AvgDegree   float64
	SizeBytes   int64
}

// ComputeStats gathers the structural statistics of g.
func ComputeStats(g *Graph) Stats {
	return Stats{
		NumVertices: g.NumVertices(),
		NumEdges:    g.NumEdges(),
		MaxDegree:   g.MaxDegree(),
		AvgDegree:   g.AvgDegree(),
		SizeBytes:   g.SizeBytes(),
	}
}

// GiniDegree returns the Gini coefficient of the degree distribution, a
// scale-free measure of degree skew in [0, 1). Dataset analogs use it to
// verify hub-dominated vs flat-degree structure (the distinction the
// paper draws between e.g. Twitter and Friendster in §6.3).
func GiniDegree(g *Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	degs := make([]float64, n)
	for v := 0; v < n; v++ {
		degs[v] = float64(g.Degree(V(v)))
	}
	sort.Float64s(degs)
	var cum, total float64
	for i, d := range degs {
		cum += d * float64(i+1)
		total += d
	}
	if total == 0 {
		return 0
	}
	gini := (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
	return math.Max(0, gini)
}
