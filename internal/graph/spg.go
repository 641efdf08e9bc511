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
// The answer over a digraph is the same type with its orientation bit
// set (Directed): SPG(u → v), the union of all shortest directed paths.
// Its Edge{U, W} is the arc U→W and is kept as found; an undirected
// answer normalises every edge to U <= W. Whoever fills the answer
// decides the orientation — an index stamps its own (Fill), so the zero
// value handed to either kind of index comes back as that kind's answer.
//
// An edge is accumulated as one integer, U in the high half and W in the
// low, so that integer order is (U, W) order and the canonical sort is a
// plain sort of integers (SortKeys's radix sort, which reads only the
// bytes in which the answer's edges differ).
//
// Dist is the shortest path distance, or InfDist when Source and Target
// are disconnected (in which case the SPG is empty). A query with
// Source == Target yields Dist 0 and an empty SPG.
type SPG struct {
	Source, Target V
	Dist           int32

	directed  bool
	keys      []uint64 // edges as found, packed; sorted and distinct once canonical
	edges     []Edge   // keys unpacked; valid while canonical
	sortBuf   []uint64 // SortKeys's scratch, kept across Reset
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

// NewSPG creates an empty undirected shortest path graph for the pair
// (u, v).
func NewSPG(u, v V) *SPG {
	return &SPG{Source: u, Target: v, Dist: InfDist, canonical: true}
}

// NewDiSPG creates an empty directed shortest path graph for u → v.
func NewDiSPG(u, v V) *SPG {
	s := NewSPG(u, v)
	s.directed = true
	return s
}

// Directed reports whether the answer is over a digraph: its edges are
// arcs U→W and its pair is ordered.
func (s *SPG) Directed() bool { return s.directed }

// Reset re-initialises the SPG for a new pair (u, v), keeping the edge
// buffer's capacity and the orientation. Query paths reuse one SPG
// across many queries to stay allocation-free once the buffer has grown
// to its working size.
//
//qbs:zeroalloc
func (s *SPG) Reset(u, v V) {
	s.Source, s.Target = u, v
	s.Dist = InfDist
	s.keys, s.edges = s.keys[:0], s.edges[:0]
	s.canonical = true
}

// AddEdge records an edge of some shortest path — the arc u→w of a
// directed answer. Duplicates are fine; they are removed on
// canonicalisation.
func (s *SPG) AddEdge(u, w V) {
	if !s.directed && u > w {
		u, w = w, u
	}
	s.keys = append(s.keys, packPair(u, w))
	s.canonical = false
}

// Fill completes a Reset result with the orientation of whatever was
// searched, the distance and the oriented pairs (x→y) the search
// emitted. A directed answer keeps them as the arcs they are; an
// undirected one has no use for the orientation and each pair becomes
// the edge {x, y}.
//
//qbs:zeroalloc
func (s *SPG) Fill(directed bool, dist int32, pairs []Arc) {
	s.directed, s.Dist = directed, dist
	for _, p := range pairs {
		u, w := p.From, p.To
		if !directed && u > w {
			u, w = w, u
		}
		s.keys = append(s.keys, packPair(u, w))
	}
	s.canonical = len(s.keys) == 0
}

// Canonicalize sorts the edge set and removes duplicates. All read
// accessors call it implicitly.
func (s *SPG) Canonicalize() {
	if s.canonical {
		return
	}
	s.sortBuf = SortKeys(s.keys, 0, s.sortBuf)
	s.keys = slices.Compact(s.keys)
	s.edges = s.edges[:0]
	for _, k := range s.keys {
		u, w := unpackPair(k)
		s.edges = append(s.edges, Edge{u, w})
	}
	s.canonical = true
}

// Edges returns the canonical sorted edge set — of a directed answer,
// its arcs as Edge{U: from, W: to}. The slice aliases internal storage
// and must not be modified.
func (s *SPG) Edges() []Edge {
	s.Canonicalize()
	return s.edges
}

// Arcs returns a copy of Edges as Arc{From, To} pairs. Nothing in the
// repository reads an answer this way; the method remains only because
// the frozen benchmark directory compiles against it, and the next
// benchmark change removes it.
func (s *SPG) Arcs() []Arc {
	arcs := make([]Arc, len(s.Edges()))
	for i, e := range s.edges {
		arcs[i] = Arc{e.U, e.W}
	}
	return arcs
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

// Equal reports whether two SPGs describe the same answer: same
// orientation, same pair (ordered iff directed), same distance and same
// edge set.
func (s *SPG) Equal(t *SPG) bool {
	if s.directed != t.directed || s.Dist != t.Dist {
		return false
	}
	samePair := s.Source == t.Source && s.Target == t.Target
	if !s.directed && s.Source == t.Target && s.Target == t.Source {
		samePair = true
	}
	return samePair && slices.Equal(s.Edges(), t.Edges())
}

// Verify checks the defining property of a shortest path graph against
// its parent graph, given as its out-arcs (an undirected graph is its
// own): the arc x→y lies on a shortest Source→Target path iff
// d(Source,x) + 1 + d(y,Target) = d(Source,Target), an undirected edge
// iff one of its two arcs does, and the answer holds exactly those.
// distFromU is the distance array from Source, distToV the one to
// Target. It returns a descriptive error on the first violation; tests
// use it as an independent check alongside oracle equality.
func (s *SPG) Verify(out Adjacency, distFromU, distToV []int32) error {
	d := s.Dist
	if s.Source == s.Target {
		if d != 0 || s.NumEdges() != 0 {
			return fmt.Errorf("spg: trivial pair must have dist 0 and no edges")
		}
		return nil
	}
	if want := distFromU[s.Target]; d != want {
		return fmt.Errorf("spg: dist = %d, want %d", d, want)
	}
	if d == InfDist {
		if s.NumEdges() != 0 {
			return fmt.Errorf("spg: disconnected pair must have empty SPG")
		}
		return nil
	}
	along := func(x, y V) bool {
		return distFromU[x] != InfDist && distToV[y] != InfDist && distFromU[x]+1+distToV[y] == d
	}
	onShortest := func(x, y V) bool { return along(x, y) || !s.directed && along(y, x) }
	for _, e := range s.Edges() {
		if _, ok := slices.BinarySearch(out.Neighbors(e.U), e.W); !ok {
			return fmt.Errorf("spg: edge %d-%d not in graph", e.U, e.W)
		}
		if !onShortest(e.U, e.W) {
			return fmt.Errorf("spg: edge %d-%d not on any shortest path", e.U, e.W)
		}
	}
	want := 0
	for u := V(0); u < V(out.NumVertices()); u++ {
		for _, w := range out.Neighbors(u) {
			if (s.directed || u < w) && onShortest(u, w) {
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
	name, sep := "SPG", "-"
	if s.directed {
		name, sep = "DiSPG", ">"
	}
	var b strings.Builder
	if s.Dist == InfDist {
		fmt.Fprintf(&b, "%s(%d,%d) dist=inf {}", name, s.Source, s.Target)
		return b.String()
	}
	fmt.Fprintf(&b, "%s(%d,%d) dist=%d {", name, s.Source, s.Target, s.Dist)
	for i, e := range s.Edges() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d%s%d", e.U, sep, e.W)
	}
	b.WriteString("}")
	return b.String()
}
