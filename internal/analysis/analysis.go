// Package analysis provides the shortest-path-graph analysis toolkit
// behind the paper's motivating applications (§1): path enumeration and
// counting, common links (vertices shared by all shortest paths),
// interdiction sets (critical vertices and edges whose removal destroys
// all shortest paths), and shortest-path rerouting sequences.
//
// All functions operate on an SPG alone; no distance oracle is needed.
// By Definition 2.2 an SPG holds exactly all shortest Source–Target
// paths, so every prefix of one lies inside it and the breadth-first
// depth of a vertex within the SPG is its distance from Source in the
// parent graph. One BFS over the SPG's own edges therefore yields the
// distance-layered DAG, the shared representation of this package, and
// the answer is layered on exactly the graph state it was computed on.
//
// Layering costs a small constant per edge. The DAG works on dense local
// ids, the positions of the vertices in ascending id order; they come
// from a small open-addressing table kept in the DAG — vertex to
// provisional id, sized to the answer at a load of at most one half,
// cleared and reused from one answer to the next — so that an endpoint
// costs one probe, only the distinct vertices are sorted, and no edge is
// searched for (see DAG.intern and DAG.layer).
package analysis

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"qbs/internal/graph"
)

// DAG is a shortest path graph oriented by distance from the source:
// every SPG edge appears once, pointing from the endpoint closer to the
// source toward the endpoint closer to the target. Paths from Source to
// Target in the DAG are exactly the shortest paths of the SPG.
//
// A DAG is slice-backed and reusable: Reset re-layers it for another
// answer in its existing buffers, so a warm DAG layers and
// counts without allocating. The zero value is ready for Reset.
type DAG struct {
	Source, Target graph.V
	Dist           int32
	// Vertices lists the vertices in ascending id order. It aliases
	// internal storage: valid until the next Reset, not to be modified.
	Vertices []graph.V

	// Everything below is indexed by local id, the position of a vertex
	// in Vertices.
	src, dst int32      // Source and Target; -1 when absent
	pairs    [][2]int32 // the input edges; layer rewrites them in local ids
	tab      []uint64   // vertex → provisional id, open addressing; see intern
	ids      []uint64   // (vertex, provisional id) per distinct vertex, sorted into local order
	rank     []int32    // provisional id → local id
	off      []int32    // CSR row starts, len(Vertices)+1
	end      []int32    // row v's depth-increasing arcs are nbr[off[v]:end[v]]
	nbr      []int32    // CSR neighbours, ascending within a row
	depth    []int32    // BFS depth from Source; -1 when unreachable
	order    []int32    // reachable vertices in BFS order, a topological order
	count    []int64    // saturating number of Source→v paths
}

// BuildDAG layers an SPG by distance from its source. Returns nil for
// trivial or disconnected SPGs.
//
// distFromSource is ignored and never invoked: the layering is derived
// from the SPG's own edges. The parameter remains only because the
// frozen benchmark directory compiles against this signature; the next
// benchmark change removes it.
func BuildDAG(spg *graph.SPG, distFromSource func(graph.V) int32) *DAG {
	if spg.Dist == graph.InfDist || spg.Source == spg.Target {
		return nil
	}
	d := new(DAG)
	d.Reset(spg)
	return d
}

// Reset re-layers d for spg, reusing d's buffers. The arcs of a
// directed answer are taken as given; an undirected edge is offered in
// both directions and the depth-increasing one kept. The trivial pair
// gives the one-vertex DAG with one (empty) path; a disconnected pair
// gives the empty DAG with none.
//
//qbs:zeroalloc
func (d *DAG) Reset(spg *graph.SPG) {
	d.Source, d.Target, d.Dist = spg.Source, spg.Target, spg.Dist
	d.pairs = d.pairs[:0]
	for _, e := range spg.Edges() {
		d.pairs = append(d.pairs, [2]int32{e.U, e.W})
	}
	d.layer(spg.Directed())
}

// grow sizes the per-vertex buffers for n vertices and the CSR for m
// entries, keeping each array that is already large enough. It is kept
// out of line so that the escape gate charges its allocations here and
// not to layer: it grows recycled buffers to their high-water mark,
// and a warm DAG finds them large enough.
//
//go:noinline
func (d *DAG) grow(n, m int) {
	d.Vertices = slices.Grow(d.Vertices[:0], n)[:n]
	d.rank = slices.Grow(d.rank[:0], n)[:n]
	d.off = slices.Grow(d.off[:0], n+1)[:n+1]
	d.end = slices.Grow(d.end[:0], n)[:n]
	d.depth = slices.Grow(d.depth[:0], n)[:n]
	d.count = slices.Grow(d.count[:0], n)[:n]
	d.nbr = slices.Grow(d.nbr[:0], m)[:m]
}

// growTable empties the id table at 1<<bits slots. Out of line for the
// same reason as grow: a warm DAG finds the recycled table large enough.
//
//go:noinline
func (d *DAG) growTable(bits uint) {
	d.tab = slices.Grow(d.tab[:0], 1<<bits)[:1<<bits]
	clear(d.tab)
	d.ids = d.ids[:0]
}

// intern returns the provisional id of v — distinct vertices are
// numbered in order of first appearance — through the open-addressing
// table: a slot holds the vertex in its high half and the id plus one in
// its low half, zero while free; shift reduces the multiplicative hash
// to the table's size. The table is never more than half full.
//
//qbs:zeroalloc
func (d *DAG) intern(v graph.V, shift uint) int32 {
	tab := d.tab
	for h := uint32(v) * 0x9E3779B1 >> shift; ; h = (h + 1) & uint32(len(tab)-1) {
		slot := tab[h]
		if slot == 0 {
			id := uint64(len(d.ids))
			tab[h] = uint64(uint32(v))<<32 | (id + 1)
			// The bias makes integer order of the high half the signed
			// order of the vertex ids.
			d.ids = append(d.ids, uint64(uint32(v)^1<<31)<<32|id)
			return int32(id)
		}
		if uint32(slot>>32) == uint32(v) {
			return int32(uint32(slot)) - 1
		}
	}
}

// local returns the local id of v, or -1 when v is not in the DAG.
func (d *DAG) local(v graph.V) int32 {
	if i, ok := slices.BinarySearch(d.Vertices, v); ok {
		return int32(i)
	}
	return -1
}

// layer builds the DAG from d.pairs: dense local ids in ascending vertex
// order, a CSR over them, then one BFS from Source that assigns depths,
// records a topological order and counts paths in the same pass.
// Rows come out sorted because a canonical edge set is.
//
// Local ids cost one table probe per endpoint and a sort of the distinct
// vertices only: each endpoint is interned to a provisional id, the
// (vertex, provisional id) pairs are sorted as integers, and the
// position of a pair in that order is the local id of its vertex.
//
//qbs:zeroalloc
func (d *DAG) layer(directed bool) {
	// At most 2·len(pairs)+1 distinct vertices: twice that many slots.
	lg := uint(bits.Len(uint(4*len(d.pairs) + 1)))
	d.growTable(lg)
	shift := 32 - lg
	for i, p := range d.pairs {
		d.pairs[i] = [2]int32{d.intern(p[0], shift), d.intern(p[1], shift)}
	}
	if d.Source == d.Target {
		d.intern(d.Source, shift)
	}
	slices.Sort(d.ids)
	n := len(d.ids)
	m := len(d.pairs)
	if !directed {
		m *= 2
	}
	d.grow(n, m)
	rank, off, end, nbr, depth, count := d.rank, d.off, d.end, d.nbr, d.depth, d.count
	for i, k := range d.ids {
		d.Vertices[i] = graph.V(uint32(k>>32) ^ 1<<31)
		rank[uint32(k)] = int32(i)
	}
	d.src, d.dst = d.local(d.Source), d.local(d.Target)

	clear(off)
	for i, p := range d.pairs {
		a, b := rank[p[0]], rank[p[1]]
		d.pairs[i] = [2]int32{a, b}
		off[a+1]++
		if !directed {
			off[b+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	copy(end, off) // row fill cursors until the BFS has run
	for _, p := range d.pairs {
		a, b := p[0], p[1]
		nbr[end[a]] = b
		end[a]++
		if !directed {
			nbr[end[b]] = a
			end[b]++
		}
	}

	for i := range depth {
		depth[i] = -1
	}
	clear(count)
	order := d.order[:0]
	if d.src >= 0 {
		depth[d.src], count[d.src] = 0, 1
		order = append(order, d.src)
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		dw, cv := depth[v]+1, count[v]
		for _, w := range nbr[off[v]:off[v+1]] {
			if depth[w] < 0 {
				depth[w] = dw
				order = append(order, w)
			}
			if depth[w] == dw {
				count[w] = satAdd(count[w], cv)
			}
		}
	}
	d.order = order

	copy(end, off)
	for _, v := range order {
		k := off[v]
		for _, w := range nbr[k:off[v+1]] {
			if depth[w] == depth[v]+1 {
				nbr[k] = w
				k++
			}
		}
		end[v] = k
	}
}

// next returns the out-neighbours of local vertex v, ascending.
func (d *DAG) next(v int32) []int32 { return d.nbr[d.off[v]:d.end[v]] }

// Next returns the out-neighbours of v (toward Target) in ascending id
// order, or nil when v is not in the DAG.
func (d *DAG) Next(v graph.V) []graph.V {
	i := d.local(v)
	if i < 0 {
		return nil
	}
	var out []graph.V
	for _, w := range d.next(i) {
		out = append(out, d.Vertices[w])
	}
	return out
}

// Prev returns the in-neighbours of v (toward Source) in ascending id
// order. The DAG stores out-arcs only, so Prev scans all of them; it is
// for inspection, not for inner loops.
func (d *DAG) Prev(v graph.V) []graph.V {
	i := d.local(v)
	if i < 0 {
		return nil
	}
	var out []graph.V
	for u := range d.Vertices {
		if slices.Contains(d.next(int32(u)), i) {
			out = append(out, d.Vertices[u])
		}
	}
	return out
}

// Depth returns the distance of v from Source, or -1 when v is not in
// the DAG or not reachable from Source within it.
func (d *DAG) Depth(v graph.V) int32 {
	i := d.local(v)
	if i < 0 {
		return -1
	}
	return d.depth[i]
}

// satAdd adds two non-negative path counts, saturating at MaxInt64.
// Saturation is sticky: once a count hits the ceiling every count
// derived from it stays there.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// satMul multiplies two non-negative path counts, saturating at
// MaxInt64.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// CountPaths returns the number of distinct shortest paths, counted
// while the DAG was layered. Path counts grow exponentially with
// distance (a chain of d diamonds has 2^d shortest paths), so the count
// saturates at math.MaxInt64 instead of silently overflowing; saturated
// reports whether the ceiling was hit — the true count is then >=
// MaxInt64. Returns (0, false) for nil and empty DAGs.
//
//qbs:zeroalloc
func (d *DAG) CountPaths() (n int64, saturated bool) {
	if d == nil || d.dst < 0 {
		return 0, false
	}
	n = d.count[d.dst]
	return n, n == math.MaxInt64
}

// pathsToTarget counts paths v→Target for every DAG vertex by local
// id, saturating at MaxInt64.
func (d *DAG) pathsToTarget() []int64 {
	to := make([]int64, len(d.Vertices))
	if d.dst < 0 {
		return to
	}
	to[d.dst] = 1
	for i := len(d.order) - 1; i >= 0; i-- { // descending depth
		v := d.order[i]
		for _, w := range d.next(v) {
			to[v] = satAdd(to[v], to[w])
		}
	}
	return to
}

// CountDiPaths counts the distinct shortest Source→Target paths of an
// answer, saturating at MaxInt64: a Reset and a CountPaths. Returns
// (0, false) for disconnected pairs and (1, false) for the trivial pair.
// Like the ignored distFromSource (see BuildDAG), the function remains
// only because the frozen benchmark directory compiles against it.
func CountDiPaths(spg *graph.SPG, distFromSource func(graph.V) int32) (n int64, saturated bool) {
	var d DAG
	d.Reset(spg)
	return d.CountPaths()
}

// EnumeratePaths lists up to limit shortest paths in lexicographic
// order of their vertex sequences (limit ≤ 0 = unlimited; beware of
// exponential path counts).
func (d *DAG) EnumeratePaths(limit int) [][]graph.V {
	if d == nil || d.src < 0 {
		return nil
	}
	var out [][]graph.V
	var path []graph.V
	var walk func(v int32) bool
	walk = func(v int32) bool {
		path = append(path, d.Vertices[v])
		more := true
		if v == d.dst {
			out = append(out, slices.Clone(path))
			more = limit <= 0 || len(out) < limit
		} else {
			for _, w := range d.next(v) {
				if more = walk(w); !more {
					break
				}
			}
		}
		path = path[:len(path)-1]
		return more
	}
	walk(d.src)
	return out
}

// interior returns the vertices strictly between Source and Target as
// local ids, in ascending depth.
func (d *DAG) interior() []int32 {
	if d == nil || d.dst < 0 {
		return nil
	}
	return slices.DeleteFunc(slices.Clone(d.order), func(v int32) bool { return v == d.src || v == d.dst })
}

// CommonLinks returns the interior vertices that lie on every shortest
// path (the Shortest Path Common Links problem): v is common iff
// paths(Source→v) × paths(v→Target) equals the total path count. (With
// saturated counts the product test degrades to an approximation; use
// CriticalVertices, which is count-free, when exactness matters on
// astronomically path-rich pairs.)
func (d *DAG) CommonLinks() []graph.V {
	total, _ := d.CountPaths()
	if total == 0 {
		return nil
	}
	to := d.pathsToTarget()
	var out []graph.V
	for _, v := range d.interior() {
		if satMul(d.count[v], to[v]) == total {
			out = append(out, d.Vertices[v])
		}
	}
	return out
}

// PathBetweenness returns, for every interior vertex, the fraction of
// shortest paths passing through it — the pair-restricted betweenness
// the SPG makes cheap to compute exactly.
func (d *DAG) PathBetweenness() map[graph.V]float64 {
	if d == nil {
		return nil
	}
	out := make(map[graph.V]float64)
	total, _ := d.CountPaths()
	if total == 0 {
		return out
	}
	to := d.pathsToTarget()
	for _, v := range d.interior() {
		out[d.Vertices[v]] = float64(satMul(d.count[v], to[v])) / float64(total)
	}
	return out
}

// CriticalVertices solves vertex interdiction on the SPG: the interior
// vertices whose removal disconnects Source from Target within the SPG
// (destroying every shortest path). Equivalent to CommonLinks — a
// vertex blocks all paths iff all paths pass through it — but computed
// independently by reachability, which tests exploit as a
// cross-check.
func (d *DAG) CriticalVertices() []graph.V {
	var out []graph.V
	var seen []bool
	for _, v := range d.interior() {
		if seen = d.reachableAvoiding(seen, v, [2]int32{-1, -1}); !seen[d.dst] {
			out = append(out, d.Vertices[v])
		}
	}
	return out
}

// CriticalEdges solves edge interdiction on the SPG: the edges whose
// removal destroys every shortest path.
func (d *DAG) CriticalEdges() []graph.Edge {
	if d == nil || d.dst < 0 {
		return nil
	}
	var out []graph.Edge
	var seen []bool
	for _, v := range d.order {
		for _, w := range d.next(v) {
			if seen = d.reachableAvoiding(seen, -1, [2]int32{v, w}); !seen[d.dst] {
				out = append(out, graph.Edge{U: d.Vertices[v], W: d.Vertices[w]}.Normalize())
			}
		}
	}
	slices.SortFunc(out, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.W, b.W))
	})
	return out
}

// reachableAvoiding marks, in seen (reused across calls), the vertices
// reachable from Source over the DAG without entering the banned vertex
// or crossing the banned arc.
func (d *DAG) reachableAvoiding(seen []bool, banned int32, bannedArc [2]int32) []bool {
	seen = slices.Grow(seen[:0], len(d.Vertices))[:len(d.Vertices)]
	clear(seen)
	if d.src == banned {
		return seen
	}
	seen[d.src] = true
	queue := []int32{d.src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range d.next(v) {
			if w == banned || seen[w] || [2]int32{v, w} == bannedArc {
				continue
			}
			seen[w] = true
			queue = append(queue, w)
		}
	}
	return seen
}

// Reroute finds a shortest rerouting sequence between two shortest
// paths: a chain of shortest paths each differing from the previous in
// exactly one vertex (the Shortest Path Rerouting problem). Both input
// paths must be paths of the DAG. Returns nil when no sequence exists.
// maxPaths bounds the enumerated path universe (≤ 0 = 4096).
func (d *DAG) Reroute(from, to []graph.V, maxPaths int) [][]graph.V {
	if d == nil {
		return nil
	}
	if maxPaths <= 0 {
		maxPaths = 4096
	}
	paths := d.EnumeratePaths(maxPaths)
	src, dst := -1, -1
	for i, p := range paths {
		if equalPath(p, from) {
			src = i
		}
		if equalPath(p, to) {
			dst = i
		}
	}
	if src < 0 || dst < 0 {
		return nil
	}
	prev := make([]int, len(paths))
	for i := range prev {
		prev[i] = -2
	}
	prev[src] = -1
	queue := []int{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == dst {
			var seq [][]graph.V
			for at := dst; at != -1; at = prev[at] {
				seq = append(seq, paths[at])
			}
			reverse(seq)
			return seq
		}
		for y := range paths {
			if prev[y] == -2 && differByOneVertex(paths[x], paths[y]) {
				prev[y] = x
				queue = append(queue, y)
			}
		}
	}
	return nil
}

func equalPath(a, b []graph.V) bool {
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

func differByOneVertex(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
			if diff > 1 {
				return false
			}
		}
	}
	return diff == 1
}

func reverse(s [][]graph.V) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
