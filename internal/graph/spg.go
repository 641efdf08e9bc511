package graph

import (
	"fmt"
	"math"
	"math/bits"
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
// The canonical form numbers the answer once: its distinct vertices in
// ascending id order, and its edges as pairs of ranks (positions in that
// list) in the canonical edge order (Dense). The ranks come from a small
// open-addressing table — vertex to provisional id, sized to the answer
// at a load of at most one half, cleared and reused from one answer to
// the next — so that an endpoint costs one probe and only the distinct
// vertices are sorted (see intern). Counting and enumerating the
// shortest paths (CountPaths, EnumeratePaths) layer that form on first
// use: by Definition 2.2 every prefix of a shortest path lies inside the
// answer, so the breadth-first depth of a vertex within it is its
// distance from Source in the parent graph, and one BFS over the
// answer's own edges orients every edge from Source toward Target,
// with no distance oracle, on exactly the graph state the answer was
// computed on.
//
// An SPG is slice-backed and reusable: Reset keeps every buffer, so a
// warm answer canonicalises, layers and counts without allocating.
//
// Dist is the shortest path distance, or InfDist when Source and Target
// are disconnected (in which case the SPG is empty). A query with
// Source == Target yields Dist 0 and an empty SPG.
type SPG struct {
	Source, Target V
	Dist           int32

	directed  bool
	canonical bool     // keys sorted and distinct; verts, pairs and edges built from them
	layered   bool     // the rows, depths and counts below built from pairs
	keys      []uint64 // edges as found, packed; sorted and distinct once canonical
	sortBuf   []uint64 // SortKeys's scratch, kept across Reset
	tab       []uint64 // vertex → provisional id, open addressing; see intern
	ids       []uint64 // (vertex, provisional id) per distinct vertex, sorted into rank order
	rank      []int32  // provisional id → rank

	// The canonical form. A vertex's rank is its position in verts.
	verts []V        // the distinct vertices, ascending
	pairs [][2]int32 // the edges as ranks of U and W, in canonical order
	edges []Edge     // the edges as ids, in canonical order

	// The layering, built by layer and indexed by rank.
	src, dst int32   // ranks of Source and Target; -1 when absent
	off      []int32 // row starts, len(verts)+1
	end      []int32 // row v's depth-increasing arcs are nbr[off[v]:end[v]]
	nbr      []int32 // neighbours, ascending within a row
	depth    []int32 // BFS depth from Source; -1 when unreachable
	order    []int32 // the BFS queue: reachable vertices, a topological order
	count    []int64 // saturating number of Source→v paths
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
	return &SPG{Source: u, Target: v, Dist: InfDist}
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

// Reset re-initialises the SPG for a new pair (u, v), keeping every
// buffer's capacity and the orientation. Query paths reuse one SPG
// across many queries to stay allocation-free once the buffers have
// grown to their working size.
//
//qbs:zeroalloc
func (s *SPG) Reset(u, v V) {
	s.Source, s.Target = u, v
	s.Dist = InfDist
	s.keys = s.keys[:0]
	s.canonical = false
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
	s.canonical = false
}

// Canonicalize builds the canonical form: it sorts the edge set, removes
// duplicates and numbers the vertices. All read accessors call it
// implicitly.
//
// The edge keys are sorted on ids, then each endpoint is interned to a
// provisional id, the (vertex, provisional id) pairs are radix-sorted by
// their vertex half, and the position of a pair in that order is the
// rank of its vertex. Ranks keep vertex order, so the edges in ranks
// stay in the canonical edge order. The trivial pair's one vertex is
// its Source.
//
//qbs:zeroalloc
func (s *SPG) Canonicalize() {
	if s.canonical {
		return
	}
	s.sortBuf = SortKeys(s.keys, 0, s.sortBuf)
	s.keys = slices.Compact(s.keys)
	m := len(s.keys)
	// At most 2m+1 distinct vertices: twice that many slots.
	lg := uint(bits.Len(uint(4*m + 1)))
	s.tab, s.ids = resize(s.tab, 1<<lg), s.ids[:0]
	clear(s.tab)
	shift := 32 - lg
	s.pairs, s.edges = resize(s.pairs, m), resize(s.edges, m)
	pairs, edges := s.pairs, s.edges
	for i, k := range s.keys {
		u, w := unpackPair(k)
		edges[i] = Edge{u, w}
		pairs[i] = [2]int32{s.intern(u, shift), s.intern(w, shift)}
	}
	if s.Source == s.Target {
		s.intern(s.Source, shift)
	}
	s.sortBuf = SortKeys(s.ids, 4, s.sortBuf)
	n := len(s.ids)
	s.verts, s.rank = resize(s.verts, n), resize(s.rank, n)
	verts, rank := s.verts, s.rank
	for i, k := range s.ids {
		verts[i] = V(uint32(k>>32) ^ 1<<31)
		rank[uint32(k)] = int32(i)
	}
	for i, p := range pairs {
		pairs[i] = [2]int32{rank[p[0]], rank[p[1]]}
	}
	s.canonical, s.layered = true, false
}

// resize returns buf with length n, reallocated only when its capacity
// is short; what it held is lost. It is kept out of line so that the
// escape gate charges its allocation here and not to its callers: it
// grows recycled buffers to their high-water mark, and a warm answer
// finds them large enough.
//
//go:noinline
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// intern returns the provisional id of v — distinct vertices are
// numbered in order of first appearance — through the open-addressing
// table: a slot holds the vertex in its high half and the id plus one in
// its low half, zero while free; shift reduces the multiplicative hash
// to the table's size. The table is never more than half full.
//
//qbs:zeroalloc
func (s *SPG) intern(v V, shift uint) int32 {
	tab := s.tab
	for h := uint32(v) * 0x9E3779B1 >> shift; ; h = (h + 1) & uint32(len(tab)-1) {
		slot := tab[h]
		if slot == 0 {
			id := uint64(len(s.ids))
			tab[h] = uint64(uint32(v))<<32 | (id + 1)
			// The bias makes integer order of the high half the signed
			// order of the vertex ids.
			s.ids = append(s.ids, uint64(uint32(v)^1<<31)<<32|id)
			return int32(id)
		}
		if uint32(slot>>32) == uint32(v) {
			return int32(uint32(slot)) - 1
		}
	}
}

// Edges returns the canonical sorted edge set — of a directed answer,
// its arcs as Edge{U: from, W: to}. The slice aliases internal storage
// and must not be modified.
func (s *SPG) Edges() []Edge {
	s.Canonicalize()
	return s.edges
}

// Dense returns the canonical form: the answer's vertices in ascending
// id order, and its edges in canonical order as the ranks (positions in
// vertices) of their two endpoints, U then W of Edge. Both alias
// internal storage: valid until the answer changes, not to be modified.
func (s *SPG) Dense() (vertices []V, edges [][2]int32) {
	s.Canonicalize()
	return s.verts, s.pairs
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

// Vertices returns a copy of the sorted set of vertices covered by the
// edge set, which the caller owns. For the trivial query u == v it
// returns just {u}.
func (s *SPG) Vertices() []V {
	s.Canonicalize()
	if len(s.verts) == 0 {
		return nil
	}
	return slices.Clone(s.verts)
}

// layer builds the layering from the canonical form: a CSR over the
// ranks, then one BFS from Source that assigns depths, counts paths and
// keeps in each row only the arcs to the next depth. Rows come out
// sorted because the canonical edges are. The arcs of a directed answer
// are taken as given; an undirected edge is offered in both directions
// and the depth-increasing one kept. The trivial pair gives the
// one-vertex layering with one (empty) path; a disconnected pair gives
// the empty one with none.
//
//qbs:zeroalloc
func (s *SPG) layer() {
	s.Canonicalize()
	if s.layered {
		return
	}
	n, m, directed := len(s.verts), len(s.pairs), s.directed
	if !directed {
		m *= 2
	}
	s.off, s.end, s.nbr = resize(s.off, n+1), resize(s.end, n), resize(s.nbr, m)
	s.depth, s.count = resize(s.depth, n), resize(s.count, n)
	off, end, nbr, depth, count := s.off, s.end, s.nbr, s.depth, s.count
	s.src, s.dst = s.rankOf(s.Source), s.rankOf(s.Target)

	clear(off)
	for _, p := range s.pairs {
		off[p[0]+1]++
		if !directed {
			off[p[1]+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	copy(end, off) // row fill cursors
	for _, p := range s.pairs {
		a, b := p[0], p[1]
		nbr[end[a]] = b
		end[a]++
		if !directed {
			nbr[end[b]] = a
			end[b]++
		}
	}

	// A row is read once, when its vertex leaves the queue, and its
	// arcs to the next depth are moved to its front; an unreachable
	// vertex keeps an empty row.
	copy(end, off)
	for i := range depth {
		depth[i] = -1
	}
	clear(count)
	order := s.order[:0]
	if s.src >= 0 {
		depth[s.src], count[s.src] = 0, 1
		order = append(order, s.src)
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		dw, cv, k := depth[v]+1, count[v], off[v]
		for _, w := range nbr[off[v]:off[v+1]] {
			if depth[w] < 0 {
				depth[w] = dw
				order = append(order, w)
			}
			if depth[w] == dw {
				count[w] = satAdd(count[w], cv)
				nbr[k] = w
				k++
			}
		}
		end[v] = k
	}
	s.order = order
	s.layered = true
}

// rankOf returns the rank of v, or -1 when v is not in the answer.
func (s *SPG) rankOf(v V) int32 {
	if i, ok := slices.BinarySearch(s.verts, v); ok {
		return int32(i)
	}
	return -1
}

// next returns the out-neighbours of the vertex of rank v, ascending.
func (s *SPG) next(v int32) []int32 { return s.nbr[s.off[v]:s.end[v]] }

// satAdd adds two non-negative path counts, saturating at MaxInt64.
// Saturation is sticky: once a count hits the ceiling every count
// derived from it stays there.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// CountPaths returns the number of distinct shortest Source→Target
// paths, counted while the answer is layered. Path counts grow
// exponentially with distance (a chain of d diamonds has 2^d shortest
// paths), so the count saturates at math.MaxInt64 instead of silently
// overflowing; saturated reports whether the ceiling was hit — the true
// count is then >= MaxInt64. Returns (1, false) for the trivial pair and
// (0, false) for a disconnected pair or a nil answer.
//
//qbs:zeroalloc
func (s *SPG) CountPaths() (n int64, saturated bool) {
	if s == nil {
		return 0, false
	}
	s.layer()
	if s.dst < 0 {
		return 0, false
	}
	n = s.count[s.dst]
	return n, n == math.MaxInt64
}

// EnumeratePaths lists up to limit shortest paths in lexicographic
// order of their vertex sequences (limit ≤ 0 = unlimited; beware of
// exponential path counts).
func (s *SPG) EnumeratePaths(limit int) [][]V {
	if s == nil {
		return nil
	}
	s.layer()
	if s.src < 0 {
		return nil
	}
	var out [][]V
	var path []V
	var walk func(v int32) bool
	walk = func(v int32) bool {
		path = append(path, s.verts[v])
		more := true
		if v == s.dst {
			out = append(out, slices.Clone(path))
			more = limit <= 0 || len(out) < limit
		} else {
			for _, w := range s.next(v) {
				if more = walk(w); !more {
					break
				}
			}
		}
		path = path[:len(path)-1]
		return more
	}
	walk(s.src)
	return out
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
