package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// DiGraph is an immutable unweighted directed graph in dual-CSR form:
// both out-adjacency and in-adjacency are materialised, since the
// directed QbS query walks forward from the source and backward from the
// target. The paper treats its datasets as undirected but notes the
// method "can be easily extended to directed graphs" (§2); package core
// is written for that extension, and this is its substrate.
type DiGraph struct {
	outOff []int64
	out    []V
	inOff  []int64
	in     []V
}

// Arc is a directed edge From → To.
type Arc struct {
	From, To V
}

// NumVertices returns |V|.
func (g *DiGraph) NumVertices() int {
	if len(g.outOff) == 0 {
		return 0
	}
	return len(g.outOff) - 1
}

// NumArcs returns the number of directed arcs.
func (g *DiGraph) NumArcs() int { return len(g.out) }

// OutDegree returns the number of out-neighbours of v.
func (g *DiGraph) OutDegree(v V) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the number of in-neighbours of v.
func (g *DiGraph) InDegree(v V) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Out returns the sorted out-neighbours of v (do not modify).
func (g *DiGraph) Out(v V) []V { return g.out[g.outOff[v]:g.outOff[v+1]] }

// In returns the sorted in-neighbours of v (do not modify).
func (g *DiGraph) In(v V) []V { return g.in[g.inOff[v]:g.inOff[v+1]] }

// HasArc reports whether the arc u→w exists.
func (g *DiGraph) HasArc(u, w V) bool {
	return inRow(g.Out(u), w, g.NumVertices())
}

// Arcs returns all arcs sorted by (From, To).
func (g *DiGraph) Arcs() []Arc {
	arcs := make([]Arc, 0, g.NumArcs())
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Out(u) {
			arcs = append(arcs, Arc{u, w})
		}
	}
	return arcs
}

// TotalDegreeOrder returns vertices by descending in+out degree (ties by
// id) — the landmark order for directed QbS.
func (g *DiGraph) TotalDegreeOrder() []V {
	return orderByDegree(g.NumVertices(), g.totalDegree)
}

// TopTotalDegreeVertices returns the first k vertices of
// TotalDegreeOrder (all of them if k exceeds |V|) without sorting the
// rest.
func (g *DiGraph) TopTotalDegreeVertices(k int) []V {
	return topByDegree(g.NumVertices(), k, g.totalDegree)
}

func (g *DiGraph) totalDegree(v int) int { return g.OutDegree(V(v)) + g.InDegree(V(v)) }

// OutDegrees materialises the out-degree array (one int32 per vertex)
// for the traversal engines' α/β direction heuristic.
func (g *DiGraph) OutDegrees() []int32 {
	n := g.NumVertices()
	degs := make([]int32, n)
	for v := 0; v < n; v++ {
		degs[v] = int32(g.outOff[v+1] - g.outOff[v])
	}
	return degs
}

// InDegrees materialises the in-degree array.
func (g *DiGraph) InDegrees() []int32 {
	n := g.NumVertices()
	degs := make([]int32, n)
	for v := 0; v < n; v++ {
		degs[v] = int32(g.inOff[v+1] - g.inOff[v])
	}
	return degs
}

// outAdj and inAdj adapt one direction of the dual CSR to the Adjacency
// interface consumed by the shared BFS engines (traverse.MultiBFS and
// traverse.ExpandMeeting). They are single-pointer structs, so converting
// them to the interface does not allocate.
type outAdj struct{ g *DiGraph }

func (a outAdj) NumVertices() int  { return a.g.NumVertices() }
func (a outAdj) NumArcs() int      { return a.g.NumArcs() }
func (a outAdj) Degree(v V) int    { return a.g.OutDegree(v) }
func (a outAdj) Neighbors(v V) []V { return a.g.Out(v) }

type inAdj struct{ g *DiGraph }

func (a inAdj) NumVertices() int  { return a.g.NumVertices() }
func (a inAdj) NumArcs() int      { return a.g.NumArcs() }
func (a inAdj) Degree(v V) int    { return a.g.InDegree(v) }
func (a inAdj) Neighbors(v V) []V { return a.g.In(v) }

// OutView returns the forward (out-arc) adjacency as a graph.Adjacency.
func (g *DiGraph) OutView() Adjacency { return outAdj{g} }

// InView returns the backward (in-arc) adjacency: Neighbors(v) are the
// in-neighbours of v, so a BFS over InView computes distances *to* the
// root.
func (g *DiGraph) InView() Adjacency { return inAdj{g} }

// CSR exposes the raw dual-CSR arrays (out offsets/adjacency, in
// offsets/adjacency). All four slices alias internal storage and must
// not be modified; they exist so serializers can dump the structure
// without a per-element copy.
func (g *DiGraph) CSR() (outOff []int64, out []V, inOff []int64, in []V) {
	return g.outOff, g.out, g.inOff, g.in
}

// DiFromCSR adopts pre-built dual-CSR arrays as a digraph, checking the
// structural invariants the query kernels depend on (monotone in-range
// offsets, sorted in-range neighbour lists, no self-loops, equal arc
// counts) in O(n+m). Like graph.FromCSR it does not cross-check that
// every out-arc appears in the in-adjacency — callers adopting
// checksummed state (the durable store's zero-copy load path) already
// know the arrays are bit-exact, and the pairing check costs a binary
// search per arc. The slices are adopted by reference and must not be
// modified afterwards.
func DiFromCSR(outOff []int64, out []V, inOff []int64, in []V) (*DiGraph, error) {
	g := &DiGraph{outOff: outOff, out: out, inOff: inOff, in: in}
	if len(outOff) == 0 || len(outOff) != len(inOff) {
		return nil, fmt.Errorf("digraph: offset arrays disagree (%d out, %d in)", len(outOff), len(inOff))
	}
	if len(out) != len(in) {
		return nil, fmt.Errorf("digraph: arc arrays disagree (%d out, %d in)", len(out), len(in))
	}
	n := g.NumVertices()
	for _, m := range []struct {
		off []int64
		adj []V
	}{{outOff, out}, {inOff, in}} {
		if m.off[0] != 0 || m.off[n] != int64(len(m.adj)) {
			return nil, fmt.Errorf("digraph: offsets do not span the arc array")
		}
		for v := 0; v < n; v++ {
			if m.off[v] > m.off[v+1] {
				return nil, fmt.Errorf("digraph: offsets not monotone at %d", v)
			}
			ns := m.adj[m.off[v]:m.off[v+1]]
			for i, w := range ns {
				if w < 0 || int(w) >= n || w == V(v) {
					return nil, fmt.Errorf("digraph: bad neighbour %d of %d", w, v)
				}
				if i > 0 && ns[i-1] >= w {
					return nil, fmt.Errorf("digraph: neighbour list of %d unsorted", v)
				}
			}
		}
	}
	return g, nil
}

// Validate checks the dual-CSR invariants.
func (g *DiGraph) Validate() error {
	n := g.NumVertices()
	if len(g.inOff) != len(g.outOff) {
		return fmt.Errorf("digraph: offset arrays disagree")
	}
	if len(g.out) != len(g.in) {
		return fmt.Errorf("digraph: arc arrays disagree (%d out, %d in)", len(g.out), len(g.in))
	}
	for v := 0; v < n; v++ {
		for _, m := range []struct {
			off []int64
			adj []V
		}{{g.outOff, g.out}, {g.inOff, g.in}} {
			if m.off[v] > m.off[v+1] || m.off[v] < 0 || m.off[v+1] > int64(len(m.adj)) {
				return fmt.Errorf("digraph: bad offsets at %d", v)
			}
		}
		ns := g.Out(V(v))
		for i, w := range ns {
			if w < 0 || int(w) >= n || w == V(v) {
				return fmt.Errorf("digraph: bad out-neighbour %d of %d", w, v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("digraph: out list of %d unsorted", v)
			}
		}
	}
	// Every out-arc must appear as an in-arc.
	for u := V(0); u < V(n); u++ {
		for _, w := range g.Out(u) {
			ins := g.In(w)
			i := sort.Search(len(ins), func(i int) bool { return ins[i] >= u })
			if i >= len(ins) || ins[i] != u {
				return fmt.Errorf("digraph: arc %d->%d missing from in-adjacency", u, w)
			}
		}
	}
	return nil
}

// DiBuilder accumulates arcs and produces an immutable DiGraph.
// Duplicates and self-loops are removed.
type DiBuilder struct {
	n    int
	arcs []Edge // Edge{U, W} is the arc U→W
}

// NewDiBuilder creates a builder over n vertices.
func NewDiBuilder(n int) *DiBuilder {
	if n < 0 {
		panic("digraph: negative vertex count")
	}
	return &DiBuilder{n: n}
}

// AddArc records the arc u→w; self-loops are ignored.
func (b *DiBuilder) AddArc(u, w V) {
	if u != w {
		b.arcs = append(b.arcs, Edge{u, w})
	}
}

// Build produces the immutable dual-CSR digraph. Like Builder.Build it
// leaves the builder usable.
func (b *DiBuilder) Build() (*DiGraph, error) {
	workers := csrWorkers(len(b.arcs))
	outOff, out, bad := buildCSR(b.n, b.arcs, true, false, workers)
	if bad >= 0 {
		a := b.arcs[bad]
		return nil, fmt.Errorf("digraph: arc %d->%d out of range [0,%d)", a.U, a.W, b.n)
	}
	inOff, in, _ := buildCSR(b.n, b.arcs, false, true, workers)
	return &DiGraph{outOff: outOff, out: out, inOff: inOff, in: in}, nil
}

// MustBuild is Build that panics on error.
func (b *DiBuilder) MustBuild() *DiGraph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// DiFromArcs builds a digraph from an arc list.
func DiFromArcs(n int, arcs []Arc) (*DiGraph, error) {
	b := NewDiBuilder(n)
	for _, a := range arcs {
		b.AddArc(a.From, a.To)
	}
	return b.Build()
}

// MustDiFromArcs is DiFromArcs that panics on error.
func MustDiFromArcs(n int, arcs []Arc) *DiGraph {
	g, err := DiFromArcs(n, arcs)
	if err != nil {
		panic(err)
	}
	return g
}

// AsDirected converts an undirected graph into a digraph with both arc
// directions, so directed algorithms can be sanity-checked against their
// undirected counterparts.
func AsDirected(g *Graph) *DiGraph {
	// A symmetric digraph's out- and in-adjacency are both g's CSR, and
	// all three are immutable: share the arrays.
	return &DiGraph{outOff: g.offsets, out: g.adj, inOff: g.offsets, in: g.adj}
}

// DirectedErdosRenyi samples m distinct directed arcs uniformly: the
// first m distinct arcs of the draw stream, sampled as ErdosRenyi
// samples edges (each kept arc enters the out- and the in-CSR).
func DirectedErdosRenyi(n, m int, seed int64) *DiGraph {
	m = max(min(m, n*(n-1)), 0)
	b := NewDiBuilder(n)
	var draw func() Edge
	b.arcs, draw = erDraws(n, m, seed, true)
	g := b.MustBuild()
	topUp(m-g.NumArcs(), draw, g.HasArc, func(keys []uint64) {
		g.out = insertCSR(g.outOff, g.out, keys)
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
func DirectedScaleFree(n, m int, seed int64) *DiGraph {
	if m < 1 {
		m = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewDiBuilder(n)
	seedSize := m + 1
	if seedSize > n {
		seedSize = n
	}
	// Every arc appends once to each of the three lists.
	arcs := seedSize + 2*m*(n-seedSize)
	b.arcs = make([]Edge, 0, arcs)
	inRep, outRep := make([]V, 0, arcs), make([]V, 0, arcs)
	for u := 0; u < seedSize; u++ {
		w := (u + 1) % seedSize
		if u != w {
			b.AddArc(V(u), V(w))
			outRep = append(outRep, V(u))
			inRep = append(inRep, V(w))
		}
	}
	for v := seedSize; v < n; v++ {
		for i := 0; i < m; i++ {
			t := inRep[rng.Intn(len(inRep))]
			if t != V(v) {
				b.AddArc(V(v), t)
				outRep = append(outRep, V(v))
				inRep = append(inRep, t)
			}
			s := outRep[rng.Intn(len(outRep))]
			if s != V(v) {
				b.AddArc(s, V(v))
				outRep = append(outRep, s)
				inRep = append(inRep, V(v))
			}
		}
	}
	return b.MustBuild()
}
