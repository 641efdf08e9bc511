package core

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"qbs/internal/graph"
)

// Meta-graph precomputation (§5.2): all-pairs shortest paths over the
// meta-graph M, and Δ — for each meta-edge (a, b), the shortest path
// graph between a and b in G, recovered from the labelling alone.
// These drop per-query sketch cost to O(|R|²) and let the recover search
// expand landmark-to-landmark segments without touching G.
//
// The meta-graph state is factored into its own immutable MetaState so
// the dynamic-update subsystem can share one instance across index
// snapshots and swap in a fresh one only when σ actually changes.

// MetaState is the immutable meta-graph bundle derived from σ: the edge
// list, the σ and APSP matrices, and the shortest-meta-path edge table.
// Rows are from-ranks: σ, the APSP and the table are oriented and not
// assumed symmetric. It is safe to share between index snapshots; all
// fields are frozen after NewMetaState.
type MetaState struct {
	R      int
	sym    bool    // the graph is undirected: σ is symmetric and each edge is kept once, as a < b
	sigma  []uint8 // |R|×|R| meta-edge weights; NoEntry = no edge
	distM  []int32 // |R|×|R| APSP over M; graph.InfDist = unreachable
	meta   []metaEdge
	metaID []int32   // |R|×|R| -> index into meta, or -1
	spg    [][]int32 // |R|×|R| -> meta-edge ids on shortest meta-paths (nil = compute on the fly)
}

// NewMetaState freezes the meta-graph of an undirected graph from its
// (symmetric) σ matrix. The matrix is copied; the deterministic edge
// order is row-major over pairs a < b, which Delta maintenance relies on
// for alignment.
func NewMetaState(R int, sigma []uint8) *MetaState { return newMetaState(R, sigma, true) }

// newMetaState is NewMetaState for either kind of graph: a digraph
// (sym false) keeps every arc a→b, in row-major order.
func newMetaState(R int, sigma []uint8, sym bool) *MetaState {
	ms := &MetaState{R: R, sym: sym, sigma: make([]uint8, R*R), metaID: make([]int32, R*R)}
	copy(ms.sigma, sigma)
	for i := range ms.metaID {
		ms.metaID[i] = -1
	}
	for a := 0; a < R; a++ {
		for b := 0; b < R; b++ {
			w := ms.sigma[a*R+b]
			if a == b || w == NoEntry || (sym && b < a) {
				continue
			}
			id := int32(len(ms.meta))
			ms.meta = append(ms.meta, metaEdge{a: a, b: b, weight: int32(w)})
			ms.metaID[a*R+b] = id
			if sym {
				ms.metaID[b*R+a] = id
			}
		}
	}
	ms.buildAPSP()
	ms.buildMetaSPG()
	return ms
}

// NumEdges returns the number of meta-edges.
func (ms *MetaState) NumEdges() int { return len(ms.meta) }

// Edge returns meta-edge k as landmark ranks and weight σ(a→b); a < b
// when the meta-graph is symmetric.
func (ms *MetaState) Edge(k int) (a, b int, weight int32) {
	e := ms.meta[k]
	return e.a, e.b, e.weight
}

// EdgeID returns the meta-edge index for ranks (a, b), or -1.
func (ms *MetaState) EdgeID(a, b int) int32 { return ms.metaID[a*ms.R+b] }

// Sigma returns σ(a→b) (NoEntry when the meta-edge is absent).
func (ms *MetaState) Sigma(a, b int) uint8 { return ms.sigma[a*ms.R+b] }

// Dist returns d_M(a→b) (graph.InfDist when unreachable).
func (ms *MetaState) Dist(a, b int) int32 { return ms.distM[a*ms.R+b] }

// buildAPSP runs Floyd–Warshall over σ. |R| ≤ 254, so O(|R|³) is trivial.
func (ms *MetaState) buildAPSP() {
	R := ms.R
	ms.distM = make([]int32, R*R)
	for i := 0; i < R; i++ {
		for j := 0; j < R; j++ {
			switch {
			case i == j:
				ms.distM[i*R+j] = 0
			case ms.sigma[i*R+j] != NoEntry:
				ms.distM[i*R+j] = int32(ms.sigma[i*R+j])
			default:
				ms.distM[i*R+j] = graph.InfDist
			}
		}
	}
	for k := 0; k < R; k++ {
		rowK := ms.distM[k*R : k*R+R]
		for i := 0; i < R; i++ {
			dik := ms.distM[i*R+k]
			if dik == graph.InfDist {
				continue
			}
			rowI := ms.distM[i*R : i*R+R]
			for j, dkj := range rowK {
				if dkj != graph.InfDist && dik+dkj < rowI[j] {
					rowI[j] = dik + dkj
				}
			}
		}
	}
}

// buildMetaSPG precomputes, for every landmark pair (i, j), the list of
// meta-edges on shortest i→j meta-paths. This is the §5.2 trick that
// drops per-query sketch expansion from O(|R|⁴) to table lookups. The
// precomputation is capped (degenerate metric meta-graphs could make the
// lists quadratic); past the cap the query path falls back to an
// on-the-fly scan.
func (ms *MetaState) buildMetaSPG() {
	const maxStored = 4 << 20 // ids; ~16 MB worst case
	R := ms.R
	ms.spg = make([][]int32, R*R)
	stored := 0
	// This pass is O(R²·|meta|) and independent of the graph size, so at
	// small scales it would otherwise dominate builds. Two reductions
	// keep it cheap: (1) the membership test factors through tightness —
	// edge (a,b,w) lies on a shortest i→j path iff it is tight from i
	// (d(i,a)+w = d(i,b)) and its far endpoint closes the path
	// (d(i,b)+d(b,j) = d(i,j)); tight edges are collected once per i and
	// reused across all j. (2) d(·, j) reads from row j of the transposed
	// APSP, which is the APSP itself when symmetric. A symmetric edge can
	// be walked either way but is tight from i in at most one direction
	// (weights are ≥ 1), so each id is still emitted at most once, in
	// ascending order — the output is identical to the direct double
	// test — and the (i, j) and (j, i) lists are one.
	distT := ms.distM
	if !ms.sym {
		distT = make([]int32, R*R)
		for i := 0; i < R; i++ {
			for j := 0; j < R; j++ {
				distT[j*R+i] = ms.distM[i*R+j]
			}
		}
	}
	type tightEdge struct {
		k    int32 // meta-edge id
		end  int32 // far endpoint rank (closes the path towards j)
		dist int32 // d(i, end) = d(i, near)+w
	}
	var tights []tightEdge
	for i := 0; i < R; i++ {
		rowI := ms.distM[i*R : i*R+R]
		tights = tights[:0]
		for k, e := range ms.meta {
			da, db := rowI[e.a], rowI[e.b]
			switch {
			case da != graph.InfDist && da+e.weight == db:
				tights = append(tights, tightEdge{int32(k), int32(e.b), db})
			case ms.sym && db != graph.InfDist && db+e.weight == da:
				tights = append(tights, tightEdge{int32(k), int32(e.a), da})
			}
		}
		for j := 0; j < R; j++ {
			d := rowI[j]
			if j == i || (ms.sym && j < i) || d == graph.InfDist {
				continue
			}
			toJ := distT[j*R : j*R+R]
			var ids []int32
			for _, te := range tights {
				if dj := toJ[te.end]; dj != graph.InfDist && te.dist+dj == d {
					ids = append(ids, te.k)
				}
			}
			ms.spg[i*R+j] = ids
			if ms.sym {
				ms.spg[j*R+i] = ids
			}
			stored += len(ids)
			if stored > maxStored {
				ms.spg = nil
				return
			}
		}
	}
}

// metaSPGEdges returns the meta-edge ids on shortest i→j meta-paths,
// using the precomputed table when available.
func (ms *MetaState) metaSPGEdges(i, j int, buf []int32) []int32 {
	if ms.spg != nil {
		return ms.spg[i*ms.R+j]
	}
	buf = buf[:0]
	for k := range ms.meta {
		if ms.onMetaShortestPath(i, j, k) {
			buf = append(buf, int32(k))
		}
	}
	return buf
}

// onMetaShortestPath reports whether meta-edge k lies on some shortest
// i→j path in M (walked either way when the meta-graph is symmetric).
func (ms *MetaState) onMetaShortestPath(i, j, k int) bool {
	R := ms.R
	e := ms.meta[k]
	d := ms.distM[i*R+j]
	if d == graph.InfDist {
		return false
	}
	da, db := ms.distM[i*R+e.a], ms.distM[e.b*R+j]
	if da != graph.InfDist && db != graph.InfDist && da+e.weight+db == d {
		return true
	}
	if !ms.sym {
		return false
	}
	da, db = ms.distM[i*R+e.b], ms.distM[e.a*R+j]
	return da != graph.InfDist && db != graph.InfDist && da+e.weight+db == d
}

// buildDelta recovers, for every meta-edge (a→b), the SPG from a to b in
// G. A non-landmark vertex w lies on a shortest a→b path that avoids
// other landmarks iff both label entries exist and δ_aw + δ_wb = σ(a→b)
// (labelFrom of a, labelTo of b); an arc (w, w') of such a path connects
// consecutive labelFrom levels. Endpoint arcs attach level-1 (resp.
// level σ−1) vertices to a (resp. b).
//
// The whole recovery costs one pass over label entries plus neighbour
// scans of candidate vertices — no BFS over G.
func (ix *Index) buildDelta() {
	R := ix.numLand
	n := ix.out.NumVertices()
	sym := ix.symmetric()
	meta := ix.ms.meta
	ix.delta = make([][]graph.Edge, len(meta))
	// arc is the Δ entry for x→y: as found on a digraph, normalised on an
	// undirected graph (where Δ lists are shared with the dynamic index).
	arc := func(x, y graph.V) graph.Edge {
		if sym {
			return graph.Edge{U: x, W: y}.Normalize()
		}
		return graph.Edge{U: x, W: y}
	}

	// Pass 1: collect candidates per meta-edge. A candidate for (a→b)
	// needs δ_av + δ_vb = σ(a→b) with both terms ≥ 1, so an entry with
	// δ_av ≥ max_b σ(a→b) (resp. δ_vb ≥ max_a σ(a→b)) can never
	// participate — on hub-dominated graphs, where landmarks sit close
	// together, that filter discards almost every entry before the O(L²)
	// pair loop. The label columns are read where they lie: blockFlags
	// tests the bound on eight consecutive vertices per 64-bit load of
	// each column, and only a vertex some column flags (on a digraph,
	// some from-column and some to-column) has its surviving entries
	// gathered into locals; the last n mod 8 vertices are gathered
	// unconditionally. Each pair costs one σ-matrix byte probe (the
	// meta-edge id is resolved only on the rare hit). A symmetric index
	// has one matrix and one entry list per vertex, and pairs each two
	// entries once (x < y, the a < b edge).
	sigma := ix.ms.sigma
	metaID := ix.ms.metaID
	maxFrom, maxTo := make([]uint8, R), make([]uint8, R)
	for a := 0; a < R; a++ {
		for b := 0; b < R; b++ {
			if s := sigma[a*R+b]; s != NoEntry {
				maxFrom[a] = max(maxFrom[a], s)
				maxTo[b] = max(maxTo[b], s)
			}
		}
	}
	type entries struct {
		ranks, dists [256]int32
		n            int
	}
	gather := func(e *entries, labels [][]uint8, maxSig []uint8, v int) {
		e.n = 0
		for i, col := range labels {
			if d := col[v]; d != NoEntry && d < maxSig[i] {
				e.ranks[e.n] = int32(i)
				e.dists[e.n] = int32(d)
				e.n++
			}
		}
	}
	cands := make([][]graph.V, len(meta))
	var from, toBuf entries
	to := &from
	if !sym {
		to = &toBuf
	}
	collect := func(v int) {
		gather(&from, ix.labelFrom, maxFrom, v)
		if !sym {
			gather(to, ix.labelTo, maxTo, v)
		}
		for x := 0; x < from.n; x++ {
			row := int(from.ranks[x]) * R
			da := from.dists[x]
			y := 0
			if sym {
				y = x + 1
			}
			for ; y < to.n; y++ {
				b := int(to.ranks[y])
				if sig := sigma[row+b]; sig != NoEntry && da+to.dists[y] == int32(sig) {
					cands[metaID[row+b]] = append(cands[metaID[row+b]], graph.V(v))
				}
			}
		}
	}
	for v := 0; v+8 <= n; v += 8 {
		m := blockFlags(ix.labelFrom, maxFrom, v)
		if !sym && m != 0 {
			m &= blockFlags(ix.labelTo, maxTo, v)
		}
		for ; m != 0; m &= m - 1 {
			collect(v + bits.TrailingZeros64(m)/8)
		}
	}
	for v := n &^ 7; v < n; v++ {
		collect(v)
	}

	// Pass 2: per meta-edge, stamp candidate levels and emit arcs.
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	var deltaEdges int64
	for k, e := range meta {
		va, vb := ix.landmarks[e.a], ix.landmarks[e.b]
		if e.weight == 1 {
			// σ = 1 meta-edges are just the direct arc.
			ix.delta[k] = []graph.Edge{arc(va, vb)}
			deltaEdges++
			continue
		}
		for _, w := range cands[k] {
			level[w] = int32(ix.labelFrom[e.a][w])
		}
		var edges []graph.Edge
		for _, w := range cands[k] {
			lw := level[w]
			if lw == 1 {
				edges = append(edges, arc(va, w))
			}
			if lw == e.weight-1 {
				edges = append(edges, arc(w, vb))
			}
			for _, x := range ix.out.Neighbors(w) {
				if level[x] == lw+1 {
					edges = append(edges, arc(w, x))
				}
			}
		}
		for _, w := range cands[k] {
			level[w] = -1
		}
		ix.delta[k] = DedupEdges(edges)
		deltaEdges += int64(len(ix.delta[k]))
	}
	ix.build.DeltaEdges = deltaEdges
}

// blockFlags returns a word whose byte j has its top bit set when some
// column may hold an entry below its bound (bound[i] for column i) at
// vertex v+j. It is the standard has-a-byte-below-k test, one 64-bit
// load per column: for k ≤ 127 it flags every byte below k, and
// possibly a byte equal to k above a borrow from a lower byte. A column
// whose bound is above 127 flags the whole block, and a bound of 0 (the
// rank has no meta-edge on this side) flags nothing. A false flag costs
// a gather, never an answer: gather re-checks every entry.
func blockFlags(labels [][]uint8, bound []uint8, v int) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	var m uint64
	for i, col := range labels {
		switch k := uint64(bound[i]); {
		case k == 0:
		case k > 127:
			return highs
		default:
			w := binary.LittleEndian.Uint64(col[v : v+8])
			m |= (w - ones*k) &^ w & highs
		}
	}
	return m
}

// DedupEdges sorts an edge list and removes duplicates in place. Shared with the dynamic subsystem, whose incrementally
// recomputed Δ lists must match buildDelta's output bit for bit.
func DedupEdges(edges []graph.Edge) []graph.Edge {
	if len(edges) < 2 {
		return edges
	}
	sortEdges(edges)
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// sortEdges orders by (U, W) ascending. Short lists (most Δ lists on
// the bundled analogs) use an allocation-free insertion sort; longer
// ones are packed into uint64 keys and sorted with the specialised
// ordered-slice sort, several times faster than a comparator sort.
// Endpoints are non-negative, so the unsigned pack preserves order.
func sortEdges(edges []graph.Edge) {
	if len(edges) <= 32 {
		for i := 1; i < len(edges); i++ {
			e := edges[i]
			j := i - 1
			for j >= 0 && (edges[j].U > e.U || (edges[j].U == e.U && edges[j].W > e.W)) {
				edges[j+1] = edges[j]
				j--
			}
			edges[j+1] = e
		}
		return
	}
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = uint64(uint32(e.U))<<32 | uint64(uint32(e.W))
	}
	slices.Sort(keys)
	for i, k := range keys {
		edges[i] = graph.Edge{U: int32(k >> 32), W: int32(uint32(k))}
	}
}
