package core

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Meta-graph precomputation (§5.2): all-pairs shortest paths over the
// meta-graph M, and Δ — for each meta-edge (a, b), the shortest path
// graph between a and b in G, recovered from the labelling alone: it is
// the label walk (walk.go) from a along b's column, the walk recover
// runs from a query endpoint, one walk per meta-edge. These drop
// per-query sketch cost to O(|R|²) and let recover expand
// landmark-to-landmark segments without touching G.
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

// buildDelta recovers Δ for every meta-edge of the index.
func (ix *Index) buildDelta() {
	ix.delta = make([][]graph.Edge, len(ix.ms.meta))
	var walk LabelWalk
	ix.FillDelta(ix.out, ix.labelTo, ix.ms, ix.delta, &walk)
	ix.build.DeltaEdges = 0
	for _, d := range ix.delta {
		ix.build.DeltaEdges += int64(len(d))
	}
}

// FillDelta walks every nil list of delta, which is aligned with ms's
// meta-edges, and returns how many it walked. Δ(a→b) is the label walk
// from landmark a over out's arcs along labelTo[b] — the shortest a→b
// paths that avoid the other landmarks, in G — sorted by (U, W), each arc
// normalised (U < W) when ms is symmetric. A Δ list is never empty, so
// nil marks exactly the lists to walk: a build passes them all, a
// maintained index the ones an update made stale. walk is the caller's,
// kept between calls; a zero LabelWalk is sized by the first list it
// walks.
func (sh *Shell) FillDelta(out graph.Adjacency, labelTo [][]uint8, ms *MetaState, delta [][]graph.Edge, walk *LabelWalk) int {
	var (
		arcs       []graph.Arc
		keys, sbuf []uint64
		walked     int
	)
	for k, e := range ms.meta {
		if delta[k] != nil {
			continue
		}
		if walk.mark == nil {
			*walk = newLabelWalk(sh.NumVertices())
		}
		walked++
		arcs, _ = walk.run(arcs[:0], sh, out, traverse.RowsAhead{}, false, labelTo[e.b], e.b, sh.landmarks[e.a], e.weight)
		// One sort and no dedup: the walk emits no arc twice.
		keys = keys[:0]
		for _, a := range arcs {
			u, w := a.From, a.To
			if ms.sym && w < u {
				u, w = w, u
			}
			keys = append(keys, uint64(u)<<32|uint64(w))
		}
		sbuf = graph.SortKeys(keys, 0, sbuf)
		list := make([]graph.Edge, len(keys))
		for i, key := range keys {
			list[i] = graph.Edge{U: graph.V(key >> 32), W: graph.V(uint32(key))}
		}
		delta[k] = list
	}
	return walked
}
