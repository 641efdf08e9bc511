package core

import (
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// Guided search (Algorithm 4): answer SPG(u, v) by a bidirectional BFS
// over the sparsified graph G⁻ = G[V\R] (represented implicitly —
// landmark neighbours are skipped) — forward from u over out-arcs,
// backward from v over in-arcs — bounded by the sketch's d⊤, followed
// by a reverse search extracting G⁻_uv and/or a recover search
// extracting G^L_uv (the shortest paths through landmarks), combined
// per Eq. 5:
//
//	d_G⁻(u,v) > d⊤  →  G^L only
//	d_G⁻(u,v) = d⊤  →  G⁻_uv ∪ G^L
//	d_G⁻(u,v) < d⊤  →  G⁻_uv only
//
// The bidirectional BFS and the reverse search are bfs.Search, the one
// two-sided search, which the Bi-BFS baseline runs unbounded over G: its
// sides meet on an arc, keep complete levels only, and grow by Bi-BFS's
// side rule. The Searcher adds what QbS has: the sketch, the landmark
// sentinels that make the search run over G⁻, the bound, and recover.
//
// The search is bounded: an answer's by d⊤, Distance's by d⊤−1, since
// d(u,v) = min(d⊤, d_G⁻) changes only for a meeting below d⊤ (Distance
// also returns at the first crossing arc). The level at the bound — the
// last the search may grow, and the largest — is only tested for a
// meeting: it is never built, so each side's completed levels are the
// ones it expanded from.
//
// Recover reads labels only: each side's part of G^L is the label walk
// from its endpoint, and the landmark-to-landmark part is Δ.
//
// A Searcher carries reusable workspaces; create one per goroutine.

// CoverageCase classifies a query for the pair-coverage experiment
// (Figure 8): whether all, some-but-not-all, or none of the shortest
// paths between the pair pass through at least one landmark.
type CoverageCase uint8

const (
	// CoverageNone: no shortest path visits a landmark (d⊤ > d_G).
	CoverageNone CoverageCase = iota
	// CoverageSome: shortest paths exist both through and avoiding
	// landmarks (d⊤ = d_G⁻ = d_G).
	CoverageSome
	// CoverageAll: every shortest path visits a landmark
	// (d_G⁻ > d⊤ = d_G). Queries with a landmark endpoint fall here.
	CoverageAll
	// CoverageTrivial: u = v or the pair is disconnected.
	CoverageTrivial
)

// QueryStats reports per-query internals used by the experiments and
// the observability layer. It is filled as an out-param on the warm
// path: plain fields, no allocation.
type QueryStats struct {
	Dist int32 // d_G(u, v); graph.InfDist if disconnected
	// DGMinus is d_G⁻(u, v) as established by the search: InfDist if it
	// exceeds the bound or is unknown. A distance-only search is bounded
	// by d⊤−1, so there d_G⁻ = d⊤ also reads InfDist.
	DGMinus     int32
	DTop        int32 // d⊤_uv from the sketch
	ArcsScanned int64 // adjacency entries examined across all stages
	SketchPairs int   // number of minimizing landmark pairs
	UsedReverse bool  // reverse search ran (G⁻ paths exist at distance d)
	UsedRecover bool  // recover search ran (through-landmark paths exist at distance d)
	// Coverage classifies the pair from DGMinus and d⊤. A distance-only
	// search cannot tell d_G⁻ = d⊤ from d_G⁻ > d⊤, so there a
	// CoverageSome pair reads CoverageAll; an answer's is exact.
	Coverage CoverageCase

	LabelEntries int64 // label entries of u and v scanned by the sketch

	// Always 0: the guided search has one expansion kernel, a sequential
	// push sweep, and never sweeps a bitmap or switches direction. The
	// fields remain only because the frozen benchmark/layers.go compiles
	// against them (ROADMAP item 1a removes them with its probe).
	FrontierWords    int64
	PushPullSwitches int64

	// Stage spans (monotonic-clock nanoseconds).
	SketchNs  int64 // sketch assembly (Algorithm 3)
	ExpandNs  int64 // sketch-guided bidirectional BFS
	ExtractNs int64 // reverse/recover path extraction
}

// Searcher answers queries against a fixed Index. Not safe for
// concurrent use; create one per goroutine (they share the immutable
// Index).
type Searcher struct {
	ix *Index

	bs       *bfs.Search // the bidirectional search over G⁻ and its reverse extraction
	fwd, bwd searchSide  // bs's two sides, with their sketch edges
	walk     LabelWalk   // recover's walks from the endpoints
	out      []graph.Arc // the answer's oriented pairs, handed to the result

	pairs    []SketchPair
	metaKept []int32  // the sketch's meta-edges (sketchMetaEdges)
	metaBuf  []int32  // a pair's meta-edges where the meta state has no table for them
	metaGen  []uint32 // per meta-edge dedup generation
	metaCur  uint32
}

// searchSide is one side of the bidirectional search — forward from u
// along out-arcs, reading u's distances to landmarks, or backward from v
// along in-arcs, reading v's distances from landmarks; the two read the
// same labelling when the index is symmetric — with the sketch edges at
// its endpoint.
type searchSide struct {
	*bfs.Side
	labels [][]uint8        // the labelling the side's endpoint reads
	ent    []SketchEndpoint // label entries of the endpoint
	sigma  []int32          // per landmark rank: σ_S of the sketch edge, -1 if absent
	ranks  []int            // ranks with a sketch edge
}

// keep records the sketch edge e at the side's endpoint, once per
// landmark.
func (s *searchSide) keep(e SketchEndpoint) {
	if s.sigma[e.Rank] < 0 {
		s.sigma[e.Rank] = e.Sigma
		s.ranks = append(s.ranks, e.Rank)
	}
}

func (s *searchSide) releaseSketch() {
	for _, r := range s.ranks {
		s.sigma[r] = -1
	}
	s.ranks = s.ranks[:0]
}

// NewSearcher creates a query workspace for ix.
func NewSearcher(ix *Index) *Searcher {
	n := ix.out.NumVertices()
	sr := &Searcher{
		bs:      bfs.NewSearch(ix.out, ix.in),
		walk:    newLabelWalk(n),
		metaGen: make([]uint32, len(ix.ms.meta)),
	}
	sr.fwd.Side, sr.bwd.Side = &sr.bs.Fwd, &sr.bs.Bwd
	for _, side := range []*searchSide{&sr.fwd, &sr.bwd} {
		side.sigma = make([]int32, ix.numLand)
		for i := range side.sigma {
			side.sigma[i] = -1
		}
	}
	sr.bind(ix)
	return sr
}

// bind points the two sides at ix: forward to (out, in, labelTo),
// backward to (in, out, labelFrom).
func (sr *Searcher) bind(ix *Index) {
	sr.ix = ix
	sr.bs.Bind(ix.out, ix.in)
	sr.fwd.labels, sr.bwd.labels = ix.labelTo, ix.labelFrom
}

// Rebind points the searcher at another index over the same vertex set
// and landmark count — consecutive snapshots of a dynamic index — so
// pooled workspaces survive snapshot turnover instead of being
// reallocated per update. It reports whether the new index is
// compatible; on false the searcher is unchanged and the caller should
// allocate a fresh one.
func (sr *Searcher) Rebind(ix *Index) bool {
	if sr.ix == ix {
		return true
	}
	if ix.out.NumVertices() != sr.ix.out.NumVertices() || ix.numLand != sr.ix.numLand {
		return false
	}
	sr.bind(ix)
	if len(sr.metaGen) < len(ix.ms.meta) {
		sr.metaGen = make([]uint32, len(ix.ms.meta))
		sr.metaCur = 0
	}
	return true
}

// Query answers SPG(u, v) — SPG(u → v) when the index is over a
// digraph.
func (sr *Searcher) Query(u, v graph.V) *graph.SPG {
	spg, _ := sr.QueryWithStats(u, v)
	return spg
}

// QueryInto answers SPG(u, v) into a caller-owned result, resetting it
// first and stamping it with the index's orientation: the search emits
// every arc x→y of the answer as an oriented pair, which an answer over
// a digraph keeps and one over an undirected graph normalises away.
// Reusing one result across queries makes the warm query path
// allocation-free (its buffer is recycled at its high-water mark).
//
//qbs:zeroalloc
func (sr *Searcher) QueryInto(dst *graph.SPG, u, v graph.V) QueryStats {
	dst.Reset(u, v)
	st := sr.query(u, v, true)
	dst.Fill(!sr.ix.symmetric(), st.Dist, sr.out)
	return st
}

// Distance returns d_G(u, v) using the same sketch-guided machinery but
// skipping path extraction. It does not allocate on the warm path.
func (sr *Searcher) Distance(u, v graph.V) int32 {
	return sr.DistanceStats(u, v).Dist
}

// DistanceStats is Distance with the search's internals: its Dist is
// the distance, and ArcsScanned the work of a search that stops at the
// first crossing arc below d⊤ and extracts nothing (see QueryStats for
// what such a search cannot tell apart).
//
//qbs:zeroalloc
func (sr *Searcher) DistanceStats(u, v graph.V) QueryStats {
	return sr.query(u, v, false)
}

// QueryWithStats is Query that also reports query internals.
func (sr *Searcher) QueryWithStats(u, v graph.V) (*graph.SPG, QueryStats) {
	spg := graph.NewSPG(u, v)
	return spg, sr.QueryInto(spg, u, v)
}

// query runs the search for (u, v), leaving the answer's oriented pairs
// in sr.out (none when extract is false).
func (sr *Searcher) query(u, v graph.V, extract bool) QueryStats {
	ix := sr.ix
	sr.out = sr.out[:0]
	var st QueryStats
	st.DGMinus = graph.InfDist

	// Sketching (Algorithm 3), for u = v too: its stats report the pair's
	// sketch, as /sketch does, although the answer needs none of it.
	t0 := time.Now()
	dTop := sr.computeSketch(u, v)
	st.DTop = dTop
	st.SketchPairs = len(sr.pairs)
	st.LabelEntries = int64(len(sr.fwd.ent) + len(sr.bwd.ent))
	t1 := time.Now()
	st.SketchNs = t1.Sub(t0).Nanoseconds()
	if u == v {
		st.Dist = 0
		st.Coverage = CoverageTrivial
		sr.releaseSketch()
		return st
	}

	// Guided bidirectional search on G⁻ (skipped when an endpoint is a
	// landmark: every u–v path then trivially "passes through" it, so the
	// answer is entirely G^L).
	sr.bs.Reset(u, v)
	var met *bfs.Side // the side whose expansion met the other, if one did
	if ix.landIdx[u] < 0 && ix.landIdx[v] < 0 {
		// Pre-mark landmarks with a sentinel depth so the expansion
		// loop skips them with a single Seen check — this is the
		// implicit G⁻ = G[V\R].
		for _, r := range ix.landmarks {
			sr.fwd.WS.SetDist(r, -1)
			sr.bwd.WS.SetDist(r, -1)
		}
		// A distance is min(d⊤, d_G⁻): only a meeting below d⊤ can
		// change it.
		bound := dTop
		if !extract && bound != graph.InfDist {
			bound--
		}
		var arcs int64
		met, arcs = sr.bs.Meet(bound, !extract)
		st.ArcsScanned += arcs
	}
	if met != nil {
		st.DGMinus = sr.fwd.D + 1 + sr.bwd.D
	}
	t2 := time.Now()
	st.ExpandNs = t2.Sub(t1).Nanoseconds()

	dist := dTop
	if st.DGMinus < dist {
		dist = st.DGMinus
	}
	st.Dist = dist
	if dist == graph.InfDist {
		st.Coverage = CoverageTrivial
		sr.releaseSketch()
		return st
	}

	// Eq. 5: reverse and/or recover. The search stops at its bound, so a
	// meeting is never longer than the distance.
	if met != nil {
		st.UsedReverse = true
		if extract {
			var arcs int64
			sr.out, arcs = sr.bs.Reverse(met, sr.out)
			st.ArcsScanned += arcs
		}
	}
	if dTop == dist {
		st.UsedRecover = true
		if extract {
			sr.recover(&st)
		}
	}

	st.ExtractNs = time.Since(t2).Nanoseconds()

	switch {
	case dTop > dist:
		st.Coverage = CoverageNone
	case st.DGMinus == dist:
		st.Coverage = CoverageSome
	default:
		st.Coverage = CoverageAll
	}
	sr.releaseSketch()
	return st
}

// computeSketch fills the searcher's sketch buffers and returns d⊤.
// releaseSketch must be called before the next query.
//
// One pass over |L(u)|×|L(v)|: a strictly smaller sum drops the pairs
// and sketch edges kept so far, an equal one adds its pair. Every pair
// at the final d⊤ comes at or after the last drop, so the pairs and
// each side's edges are kept in scan order (u's entries outer).
func (sr *Searcher) computeSketch(u, v graph.V) (dTop int32) {
	ix := sr.ix
	R := ix.numLand
	fwd, bwd := &sr.fwd, &sr.bwd
	fwd.ent = ix.entryList(u, fwd.labels, fwd.ent)
	bwd.ent = ix.entryList(v, bwd.labels, bwd.ent)
	sr.pairs = sr.pairs[:0]
	dTop = graph.InfDist
	for _, eu := range fwd.ent {
		row := eu.Rank * R
		for _, ev := range bwd.ent {
			dm := ix.ms.distM[row+ev.Rank]
			if dm == graph.InfDist {
				continue
			}
			pi := eu.Sigma + dm + ev.Sigma
			if pi > dTop {
				continue
			}
			if pi < dTop {
				dTop = pi
				sr.pairs = sr.pairs[:0]
				sr.releaseSketch()
			}
			sr.pairs = append(sr.pairs, SketchPair{R: eu.Rank, RPrime: ev.Rank})
			fwd.keep(eu)
			bwd.keep(ev)
		}
	}
	return dTop
}

func (sr *Searcher) releaseSketch() {
	sr.fwd.releaseSketch()
	sr.bwd.releaseSketch()
}

// recover computes G^L_uv: for each sketch edge (r, t) at a non-landmark
// endpoint t, the label walk from t along r's column adds every shortest
// t–r path avoiding the other landmarks; then every sketch meta-edge
// adds its Δ. It reads labels and Δ only, never the search's levels.
func (sr *Searcher) recover(st *QueryStats) {
	ix := sr.ix
	for _, side := range [2]*searchSide{&sr.fwd, &sr.bwd} {
		root := side.Root()
		if ix.landIdx[root] >= 0 {
			continue // landmark endpoint: the meta-path starts at it directly
		}
		rows := side.WS.RowsAhead(side.Push)
		for _, rank := range side.ranks {
			sigma := side.sigma[rank]
			if sigma < 1 {
				// A non-landmark endpoint always has σ_S ≥ 1; this guards
				// against corrupted label bytes from an untrusted snapshot.
				continue
			}
			var arcs int64
			sr.out, arcs = sr.walk.run(sr.out, &ix.Shell, side.Push, rows, side == &sr.bwd, side.labels[rank], rank, root, sigma)
			st.ArcsScanned += arcs
		}
	}

	// The sketch's meta-edges → Δ arcs.
	for _, k := range sr.sketchMetaEdges() {
		for _, e := range ix.delta[k] {
			sr.out = append(sr.out, graph.Arc{From: e.U, To: e.W})
		}
	}
}
