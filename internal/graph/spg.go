package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// InfDist marks an infinite distance (disconnected query pair).
const InfDist = int32(math.MaxInt32)

// SPG is a shortest path graph: the answer to a query SPG(u, v), holding
// exactly the union of all shortest paths between Source and Target
// (Definition 2.2 of the paper). Edges are accumulated by the query
// algorithms (possibly with duplicates) and canonicalised on demand.
//
// An edge is accumulated as one integer, U in the high half and W in the
// low, so that integer order is (U, W) order and the canonical sort is a
// plain sort of integers.
//
// Dist is the shortest path distance, or InfDist when Source and Target
// are disconnected (in which case the SPG is empty). A query with
// Source == Target yields Dist 0 and an empty SPG.
type SPG struct {
	Source, Target V
	Dist           int32

	keys      []uint64 // edges as found, packed; sorted and distinct once canonical
	edges     []Edge   // keys unpacked; valid while canonical
	canonical bool
}

// packPair packs the ordered pair (a, b) so that integer order is
// lexicographic pair order: each half is biased to unsigned order.
func packPair(a, b V) uint64 {
	return uint64(uint32(a)^1<<31)<<32 | uint64(uint32(b)^1<<31)
}

// unpackPair inverts packPair.
func unpackPair(k uint64) (a, b V) {
	return V(uint32(k>>32) ^ 1<<31), V(uint32(k) ^ 1<<31)
}

// sortDistinct sorts packed pairs and drops duplicates.
func sortDistinct(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

// NewSPG creates an empty shortest path graph for the pair (u, v).
func NewSPG(u, v V) *SPG {
	return &SPG{Source: u, Target: v, Dist: InfDist, canonical: true}
}

// Reset re-initialises the SPG for a new pair (u, v), keeping the edge
// buffer's capacity. Query paths reuse one SPG across many queries to
// stay allocation-free once the buffer has grown to its working size.
//
//qbs:zeroalloc
func (s *SPG) Reset(u, v V) {
	s.Source, s.Target = u, v
	s.Dist = InfDist
	s.keys, s.edges = s.keys[:0], s.edges[:0]
	s.canonical = true
}

// AddEdge records an edge of some shortest path. Duplicates are fine;
// they are removed on canonicalisation.
func (s *SPG) AddEdge(u, w V) {
	e := Edge{u, w}.Normalize()
	s.keys = append(s.keys, packPair(e.U, e.W))
	s.canonical = false
}

// Fill completes a Reset result with the distance and the oriented
// pairs (x→y) a search emitted. An undirected answer has no use for the
// orientation: each pair becomes the edge {x, y}.
//
//qbs:zeroalloc
func (s *SPG) Fill(dist int32, pairs []Arc) {
	s.Dist = dist
	for _, p := range pairs {
		e := Edge{p.From, p.To}.Normalize()
		s.keys = append(s.keys, packPair(e.U, e.W))
	}
	s.canonical = len(s.keys) == 0
}

// Canonicalize sorts the edge set and removes duplicates. All read
// accessors call it implicitly.
func (s *SPG) Canonicalize() {
	if s.canonical {
		return
	}
	s.keys = sortDistinct(s.keys)
	s.edges = s.edges[:0]
	for _, k := range s.keys {
		u, w := unpackPair(k)
		s.edges = append(s.edges, Edge{u, w})
	}
	s.canonical = true
}

// Edges returns the canonical sorted edge set. The slice aliases internal
// storage and must not be modified.
func (s *SPG) Edges() []Edge {
	s.Canonicalize()
	return s.edges
}

// NumEdges returns the number of distinct edges.
func (s *SPG) NumEdges() int {
	s.Canonicalize()
	return len(s.edges)
}

// Vertices returns the sorted set of vertices covered by the edge set.
// For the trivial query u == v it returns just {u}.
func (s *SPG) Vertices() []V {
	s.Canonicalize()
	if len(s.edges) == 0 {
		if s.Source == s.Target {
			return []V{s.Source}
		}
		return nil
	}
	out := make([]V, 0, 2*len(s.edges))
	for _, e := range s.edges {
		out = append(out, e.U, e.W)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Equal reports whether two SPGs describe the same answer: same pair
// (order-insensitive), same distance and same edge set.
func (s *SPG) Equal(t *SPG) bool {
	if s.Dist != t.Dist {
		return false
	}
	samePair := (s.Source == t.Source && s.Target == t.Target) ||
		(s.Source == t.Target && s.Target == t.Source)
	if !samePair {
		return false
	}
	a, b := s.Edges(), t.Edges()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Verify checks the defining property of a shortest path graph against
// its parent graph g: every edge lies on at least one shortest
// Source–Target path, and every shortest-path edge is present. distU and
// distV are full distance arrays from Source and Target in g. It returns
// a descriptive error on the first violation; tests use it as an
// independent check alongside oracle equality.
func (s *SPG) Verify(g *Graph, distU, distV []int32) error {
	d := s.Dist
	if s.Source == s.Target {
		if d != 0 || s.NumEdges() != 0 {
			return fmt.Errorf("spg: trivial pair must have dist 0 and no edges")
		}
		return nil
	}
	trueDist := distU[s.Target]
	if d != trueDist {
		return fmt.Errorf("spg: dist = %d, want %d", d, trueDist)
	}
	if d == InfDist {
		if s.NumEdges() != 0 {
			return fmt.Errorf("spg: disconnected pair must have empty SPG")
		}
		return nil
	}
	onShortest := func(e Edge) bool {
		if distU[e.U] == InfDist || distV[e.W] == InfDist {
			return false
		}
		return distU[e.U]+1+distV[e.W] == d || distU[e.W]+1+distV[e.U] == d
	}
	for _, e := range s.Edges() {
		if !g.HasEdge(e.U, e.W) {
			return fmt.Errorf("spg: edge {%d,%d} not in graph", e.U, e.W)
		}
		if !onShortest(e) {
			return fmt.Errorf("spg: edge {%d,%d} not on any shortest path", e.U, e.W)
		}
	}
	want := 0
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, w := range g.Neighbors(u) {
			if u < w && onShortest(Edge{u, w}) {
				want++
			}
		}
	}
	if got := s.NumEdges(); got != want {
		return fmt.Errorf("spg: has %d edges, want %d", got, want)
	}
	return nil
}

// String renders a compact human-readable description.
func (s *SPG) String() string {
	var b strings.Builder
	if s.Dist == InfDist {
		fmt.Fprintf(&b, "SPG(%d,%d) dist=inf {}", s.Source, s.Target)
		return b.String()
	}
	fmt.Fprintf(&b, "SPG(%d,%d) dist=%d {", s.Source, s.Target, s.Dist)
	for i, e := range s.Edges() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d-%d", e.U, e.W)
	}
	b.WriteString("}")
	return b.String()
}
