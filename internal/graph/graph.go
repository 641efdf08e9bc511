// Package graph provides the static graph substrate used throughout the
// Query-by-Sketch (QbS) reproduction: a compressed sparse row (CSR)
// representation of an unweighted, undirected graph, an incremental
// builder, text and binary I/O, synthetic network generators, and basic
// structural statistics.
//
// All algorithms in this repository (the QbS index, the PPL/ParentPPL
// baselines and the search baselines) operate on the immutable Graph type
// defined here. Vertices are dense int32 identifiers in [0, NumVertices).
//
// # Construction
//
// Every graph the package makes — Builder and DiBuilder, the readers,
// the generators and their composite passes (HubBoost, Union,
// TriadicClosure), LargestComponent, Relabel, InducedSubgraph — goes
// through one constructor, buildCSR (csr.go), over the builder's pending
// pairs. A Graph is one call that enters each pair into both endpoints'
// lists; a DiGraph is two calls, out-adjacency from (From, To) and
// in-adjacency from (To, From). Its passes:
//
//  1. validate every endpoint against [0, n) and count degrees;
//  2. prefix-sum the counts into offsets;
//  3. scatter each pair into its list(s);
//  4. per vertex: sort the list (slices.Sort on []int32, skipped when it
//     arrived strictly increasing) and squeeze duplicates out in place;
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

// Edge is an undirected edge between two vertices. Normalised edges have
// U <= W.
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

// Graph is an immutable unweighted, undirected graph in CSR form.
// Each undirected edge {u, w} is stored as two arcs (u→w and w→u).
//
// The zero value is an empty graph. Construct graphs with a Builder,
// one of the generators, or a reader.
type Graph struct {
	offsets []int64 // len = n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []V     // concatenated, per-vertex sorted neighbour lists
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E|, the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// NumArcs returns the number of stored arcs (2·|E| for undirected graphs).
func (g *Graph) NumArcs() int { return len(g.adj) }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v V) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v V) []V {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u, w} exists. It binary
// searches the smaller of the two adjacency lists.
func (g *Graph) HasEdge(u, w V) bool {
	if u == w {
		return false
	}
	if g.Degree(u) > g.Degree(w) {
		u, w = w, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= w })
	return i < len(ns) && ns[i] == w
}

// Edges returns all undirected edges, normalised (U <= W) and sorted.
// It allocates a fresh slice of length NumEdges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Neighbors(u) {
			if u < w {
				out = append(out, Edge{u, w})
			}
		}
	}
	return out
}

// Degrees materialises every vertex degree as a flat int32 array — the
// form the traversal engines consume for their direction heuristic
// (avoiding an interface Degree call per touched vertex).
func (g *Graph) Degrees() []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(V(v)))
	}
	return deg
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(V(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree (2|E| / |V|), or 0 for an
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

// VerticesByDegree returns all vertices sorted by descending degree,
// breaking ties by ascending vertex id (making the order deterministic).
func (g *Graph) VerticesByDegree() []V {
	return orderByDegree(g.NumVertices(), func(v int) int { return g.Degree(V(v)) })
}

// TopDegreeVertices returns the k highest-degree vertices (deterministic
// tie-break by id). If k exceeds |V|, all vertices are returned.
func (g *Graph) TopDegreeVertices(k int) []V {
	return topByDegree(g.NumVertices(), k, func(v int) int { return g.Degree(V(v)) })
}

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

// Validate checks internal invariants of the CSR structure: offsets are
// monotone, neighbour lists are sorted, free of self-loops and duplicates,
// and every arc has a reverse arc. It is used by tests and the binary
// reader.
func (g *Graph) Validate() error {
	if err := g.ValidateStructure(); err != nil {
		return err
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(V(v)) {
			if !g.HasEdge(w, V(v)) {
				return fmt.Errorf("graph: missing reverse arc %d->%d", w, v)
			}
		}
	}
	return nil
}

// ValidateStructure is the O(n+m) subset of Validate: monotone in-range
// offsets and sorted, in-range, self-loop-free neighbour lists — every
// invariant array indexing and binary searches rely on, without the
// per-arc reverse-pairing search. FromCSR uses it to keep checksummed
// snapshot loads linear; on large graphs the scan fans out across
// GOMAXPROCS workers (each vertex's checks are independent, and a
// vertex's own offsets are verified before its adjacency is sliced).
func (g *Graph) ValidateStructure() error {
	n := g.NumVertices()
	if len(g.offsets) == 0 {
		if len(g.adj) != 0 {
			return fmt.Errorf("graph: adjacency without offsets")
		}
		return nil
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: offset endpoints invalid")
	}
	checkRange := func(lo, hi int) error {
		for v := lo; v < hi; v++ {
			if g.offsets[v] > g.offsets[v+1] {
				return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
			}
			if g.offsets[v] < 0 || g.offsets[v+1] > int64(len(g.adj)) {
				return fmt.Errorf("graph: offsets out of range at vertex %d", v)
			}
			ns := g.adj[g.offsets[v]:g.offsets[v+1]]
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

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges, reversed duplicates and self-loops are removed. Directed inputs
// are symmetrised, matching the paper's treatment of all datasets as
// undirected (the |E_un| column of Table 1).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices. Vertices are
// implicit: every id in [0, n) is a vertex even if isolated.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, w}. Self-loops are ignored.
// Endpoints outside [0, n) cause Build to fail.
func (b *Builder) AddEdge(u, w V) {
	if u == w {
		return
	}
	b.edges = append(b.edges, Edge{u, w}.Normalize())
}

// addGraph records every edge of g straight from its adjacency, leaving
// room for more further pending edges.
func (b *Builder) addGraph(g *Graph, more int) {
	b.edges = slices.Grow(b.edges, g.NumEdges()+more)
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Neighbors(u) {
			if u < w {
				b.edges = append(b.edges, Edge{u, w})
			}
		}
	}
}

// NumPendingEdges returns the number of edges recorded so far, before
// deduplication.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph, deduplicating edges. The
// builder remains usable afterwards (Build may be called again after
// further AddEdge calls).
func (b *Builder) Build() (*Graph, error) {
	offsets, adj, bad := buildCSR(b.n, b.edges, true, true, csrWorkers(len(b.edges)))
	if bad >= 0 {
		e := b.edges[bad]
		return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.W, b.n)
	}
	return &Graph{offsets: offsets, adj: adj}, nil
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

// FromEdges builds a graph directly from an edge list.
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

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true), preserving original vertex ids (vertices not kept become
// isolated). This is the explicit form of the paper's sparsified graph
// G[V\R]; the QbS query path uses an implicit representation instead, but
// the explicit form is useful for tests and the ablation benchmarks.
func (g *Graph) InducedSubgraph(keep func(V) bool) *Graph {
	b := NewBuilder(g.NumVertices())
	for u := V(0); u < V(g.NumVertices()); u++ {
		if !keep(u) {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if u < w && keep(w) {
				b.AddEdge(u, w)
			}
		}
	}
	return b.MustBuild()
}

// ConnectedComponents labels each vertex with a component id in
// [0, count) and returns the labels and the component count. Component
// ids are assigned in order of the smallest vertex they contain.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]V, 0, 1024)
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
			for _, w := range g.Neighbors(u) {
				if labels[w] < 0 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return labels, count
}

// LargestComponent returns the subgraph restricted to the largest
// connected component with vertices re-numbered densely, together with
// the mapping from new ids to original ids. Generators use it to deliver
// connected graphs, mirroring the paper's assumption of connectivity.
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
	b := NewBuilder(sizes[best])
	for _, u := range orig {
		for _, w := range g.Neighbors(u) {
			if remap[w] >= 0 && remap[u] < remap[w] {
				b.AddEdge(remap[u], remap[w])
			}
		}
	}
	return b.MustBuild(), orig
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
