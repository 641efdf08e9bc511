package core

import (
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Guided search (Algorithm 4): answer SPG(u, v) by a sketch-bounded
// bidirectional BFS over the sparsified graph G⁻ = G[V\R] (represented
// implicitly — landmark neighbours are skipped) — forward from u over
// out-arcs, backward from v over in-arcs — followed by a reverse search
// extracting G⁻_uv and/or a recover search extracting G^L_uv (the
// shortest paths through landmarks), combined per Eq. 5:
//
//	d_G⁻(u,v) > d⊤  →  G^L only
//	d_G⁻(u,v) = d⊤  →  G⁻_uv ∪ G^L
//	d_G⁻(u,v) < d⊤  →  G⁻_uv only
//
// The two searches meet on an arc, not on a vertex: the level that
// expands one side reports every arc into the other side's visited set
// (see bidirectional). Those arcs are part of the answer as found, the
// reverse search starts from their endpoints, and the level that found
// them is abandoned — each side keeps complete levels only, which is
// all reverse and recover read. What runs after the meeting is then
// linear in the part of the answer it adds: the reverse search scans
// the adjacency of answer vertices at depth ≥ 2 only (a depth-1
// vertex's one predecessor is the root), and Distance returns at the
// first crossing arc.
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
	Dist        int32 // d_G(u, v); graph.InfDist if disconnected
	DGMinus     int32 // d_G⁻(u, v) as established by the search (InfDist if > d⊤ or unknown)
	DTop        int32 // d⊤_uv from the sketch
	ArcsScanned int64 // adjacency entries examined across all stages
	SketchPairs int   // number of minimizing landmark pairs
	UsedReverse bool  // reverse search ran (G⁻ paths exist at distance d)
	UsedRecover bool  // recover search ran (through-landmark paths exist at distance d)
	Coverage    CoverageCase

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

	fwd, bwd searchSide
	ext      *bfs.Extractor  // reverse extraction with reusable buffers
	walkMark *traverse.Marks // scratch for label walks
	cross    []graph.Arc     // arcs between the two visited sets, in the last expansion's push orientation
	ends     [2][]graph.V    // their endpoints, per side: where the reverse search starts
	metaBuf  []int32
	out      []graph.Arc // the answer's oriented pairs, handed to the result

	pairs        []SketchPair
	metaGen      []uint32 // per meta-edge dedup generation
	metaCur      uint32
	walkCur      []graph.V
	walkNext     []graph.V
	recoverStart []graph.V
}

// searchSide is one direction of the bidirectional search — forward from
// u along out-arcs, reading u's distances to landmarks, or backward from
// v along in-arcs, reading v's distances from landmarks; the two are
// bound to the same adjacency and labelling when the index is symmetric.
// It carries a visited set with depths, an arena of visited vertices
// grouped into levels (level i = arena[levelOff[i]:levelOff[i+1]]) and
// the sketch edges at its endpoint.
type searchSide struct {
	push, pull graph.Adjacency // the side's arcs and their reverse (extraction walks those)
	labels     [][]uint8       // the labelling the side's endpoint reads
	backward   bool            // the side walks arcs against their orientation

	root     graph.V
	ws       *bfs.Workspace
	arena    []graph.V
	levelOff []int32
	d        int32 // completed levels

	ent   []SketchEndpoint // label entries of the endpoint
	sigma []int32          // per landmark rank: σ_S of the sketch edge, -1 if absent
	ranks []int            // ranks with a sketch edge
}

func (s *searchSide) reset(t graph.V) {
	s.root = t
	s.ws.Reset()
	s.ws.SetDist(t, 0)
	s.arena = append(s.arena[:0], t)
	s.levelOff = append(s.levelOff[:0], 0, 1)
	s.d = 0
}

func (s *searchSide) level(i int32) []graph.V {
	return s.arena[s.levelOff[i]:s.levelOff[i+1]]
}

func (s *searchSide) frontier() []graph.V { return s.level(s.d) }

func (s *searchSide) visited() int { return len(s.arena) }

// keep records the sketch edge e at the side's endpoint (once per
// landmark) and returns the search bound d* raised to cover it.
func (s *searchSide) keep(e SketchEndpoint, dStar int32) int32 {
	if s.sigma[e.Rank] < 0 {
		s.sigma[e.Rank] = e.Sigma
		s.ranks = append(s.ranks, e.Rank)
		if e.Sigma-1 > dStar {
			dStar = e.Sigma - 1
		}
	}
	return dStar
}

func (s *searchSide) releaseSketch() {
	for _, r := range s.ranks {
		s.sigma[r] = -1
	}
	s.ranks = s.ranks[:0]
}

// NewSearcher creates a query workspace for ix.
func NewSearcher(ix *Index) *Searcher {
	ix.EnsureDelta()
	n := ix.out.NumVertices()
	sr := &Searcher{
		ext:      bfs.NewExtractor(n),
		walkMark: traverse.NewMarks(n),
		metaGen:  make([]uint32, len(ix.ms.meta)),
	}
	sr.bwd.backward = true
	for _, side := range []*searchSide{&sr.fwd, &sr.bwd} {
		side.ws = bfs.NewWorkspace(n)
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
	sr.fwd.push, sr.fwd.pull, sr.fwd.labels = ix.out, ix.in, ix.labelTo
	sr.bwd.push, sr.bwd.pull, sr.bwd.labels = ix.in, ix.out, ix.labelFrom
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
	ix.EnsureDelta()
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
	return sr.query(u, v, false).Dist
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
	if u == v {
		st.Dist = 0
		st.Coverage = CoverageTrivial
		return st
	}

	// Sketching (Algorithm 3).
	t0 := time.Now()
	dTop, dStarU, dStarV := sr.computeSketch(u, v)
	st.DTop = dTop
	st.SketchPairs = len(sr.pairs)
	st.LabelEntries = int64(len(sr.fwd.ent) + len(sr.bwd.ent))
	t1 := time.Now()
	st.SketchNs = t1.Sub(t0).Nanoseconds()

	// Guided bidirectional search on G⁻ (skipped when an endpoint is a
	// landmark: every u–v path then trivially "passes through" it, so the
	// answer is entirely G^L).
	sr.fwd.reset(u)
	sr.bwd.reset(v)
	var side *searchSide // the side whose expansion met the other, if one did
	if ix.landIdx[u] < 0 && ix.landIdx[v] < 0 {
		// Pre-mark landmarks with a sentinel depth so the expansion
		// loop skips them with a single Seen check — this is the
		// implicit G⁻ = G[V\R].
		for _, r := range ix.landmarks {
			sr.fwd.ws.SetDist(r, -1)
			sr.bwd.ws.SetDist(r, -1)
		}
		side = sr.bidirectional(dTop, dStarU, dStarV, !extract, &st)
	}
	if side != nil {
		st.DGMinus = sr.fwd.d + 1 + sr.bwd.d
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

	// Eq. 5: reverse and/or recover. The search stops at d⊤, so a
	// meeting is never longer than the distance.
	if side != nil {
		st.UsedReverse = true
		if extract {
			sr.reverse(side, &st)
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

// computeSketch fills the searcher's sketch buffers and returns
// (d⊤, d*_u, d*_v). releaseSketch must be called before the next query.
func (sr *Searcher) computeSketch(u, v graph.V) (dTop, dStarU, dStarV int32) {
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
			if pi := eu.Sigma + dm + ev.Sigma; pi < dTop {
				dTop = pi
			}
		}
	}
	if dTop == graph.InfDist {
		return dTop, 0, 0
	}
	for _, eu := range fwd.ent {
		row := eu.Rank * R
		for _, ev := range bwd.ent {
			dm := ix.ms.distM[row+ev.Rank]
			if dm == graph.InfDist || eu.Sigma+dm+ev.Sigma != dTop {
				continue
			}
			sr.pairs = append(sr.pairs, SketchPair{R: eu.Rank, RPrime: ev.Rank})
			dStarU = fwd.keep(eu, dStarU)
			dStarV = bwd.keep(ev, dStarV)
		}
	}
	return dTop, dStarU, dStarV
}

func (sr *Searcher) releaseSketch() {
	sr.fwd.releaseSketch()
	sr.bwd.releaseSketch()
}

// bidirectional runs the sketch-guided bidirectional BFS over G⁻ until an
// arc crosses from one visited set to the other, leaving the crossing
// arcs (all of them, or one if first) in sr.cross, and returns the side
// whose expansion found them — nil if the searches exhausted or reached
// the d⊤ bound first. Side choice follows the paper: prefer the side
// whose bound d* has not been reached; tie-break on visited-set size.
//
// Meeting rule. The level that expands side S tests each vertex it
// reaches against both visited sets (traverse.ExpandMeeting). While no
// arc has crossed, no vertex of G⁻ is in both: a level only ever adds
// vertices the other side has not seen. A crossing arc x→y therefore has
// x on S's frontier and y on the other side's outermost level — were y
// any deeper inside, x would have been reached from there — so
// d_G⁻ = S.d + 1 + other.d, the crossing arcs are exactly the answer's
// arcs over that cut, and the rest of G⁻_uv lies below their endpoints
// in levels both sides have completed. The level that met is abandoned:
// S.d and levelOff do not advance, and reverse and recover read complete
// levels only.
func (sr *Searcher) bidirectional(dTop, dStarU, dStarV int32, first bool, st *QueryStats) *searchSide {
	for dTop == graph.InfDist || sr.fwd.d+sr.bwd.d < dTop {
		uWant := dStarU > sr.fwd.d && len(sr.fwd.frontier()) > 0
		vWant := dStarV > sr.bwd.d && len(sr.bwd.frontier()) > 0
		var side, other *searchSide
		switch {
		case uWant && !vWant:
			side, other = &sr.fwd, &sr.bwd
		case vWant && !uWant:
			side, other = &sr.bwd, &sr.fwd
		case sr.fwd.visited() <= sr.bwd.visited():
			side, other = &sr.fwd, &sr.bwd
		default:
			side, other = &sr.bwd, &sr.fwd
		}
		if len(side.frontier()) == 0 {
			side, other = other, side
			if len(side.frontier()) == 0 {
				return nil // G⁻ exhausted: d_G⁻ = ∞
			}
		}
		// Landmarks carry a sentinel depth on both sides from query
		// setup, so the expansion's seen check skips them before it
		// looks at the other side.
		var arcs int64
		side.arena, sr.cross, arcs = traverse.ExpandMeeting(side.push, side.ws, other.ws, side.frontier(), side.d, side.arena, sr.cross[:0], first)
		st.ArcsScanned += arcs
		if len(sr.cross) > 0 {
			return side
		}
		side.levelOff = append(side.levelOff, int32(len(side.arena)))
		side.d++
	}
	return nil
}

// reverse extracts G⁻_uv after side's expansion met the other side: the
// crossing arcs themselves, then everything below their endpoints on
// either side.
func (sr *Searcher) reverse(side *searchSide, st *QueryStats) {
	other := &sr.fwd
	if side == other {
		other = &sr.bwd
	}
	xs, ys := sr.ends[0][:0], sr.ends[1][:0]
	for _, c := range sr.cross {
		sr.emit(side, c.From, c.To)
		xs, ys = append(xs, c.From), append(ys, c.To)
	}
	sr.ends = [2][]graph.V{xs, ys}
	sr.extract(side, xs, st)
	sr.extract(other, ys, st)
}

// extract emits the arcs of all shortest paths side found between its
// root and the given vertices.
func (sr *Searcher) extract(side *searchSide, from []graph.V, st *QueryStats) {
	var arcs int64
	sr.out, arcs = sr.ext.Extract(side.pull, side.backward, sr.out, from, side.ws, side.root)
	st.ArcsScanned += arcs
}

// emit records the arc a side found stepping from x to y: x→y on the
// forward side, y→x on the backward one.
func (sr *Searcher) emit(side *searchSide, x, y graph.V) {
	if side.backward {
		x, y = y, x
	}
	sr.out = append(sr.out, graph.Arc{From: x, To: y})
}

// recover computes G^L_uv: for each sketch endpoint edge (r, t), find the
// attachment vertices Z (closest-to-r vertices the search reached on
// shortest t–r paths), walk them back to t over the search depths and
// forward to r over the labelling; then expand every sketch meta-edge
// from the precomputed Δ.
func (sr *Searcher) recover(st *QueryStats) {
	ix := sr.ix
	for _, side := range [2]*searchSide{&sr.fwd, &sr.bwd} {
		if ix.landIdx[side.root] >= 0 {
			continue // landmark endpoint: the meta-path starts at it directly
		}
		for _, rank := range side.ranks {
			sigma := side.sigma[rank]
			if sigma < 1 {
				// A non-landmark endpoint always has σ_S ≥ 1; this guards
				// against corrupted label bytes from an untrusted snapshot.
				continue
			}
			dm := sigma - 1
			if side.d < dm {
				dm = side.d
			}
			want := uint8(sigma - dm)
			starts := sr.recoverStart[:0]
			col := side.labels[rank]
			for _, w := range side.level(dm) {
				if col[w] == want {
					starts = append(starts, w)
				}
			}
			sr.recoverStart = starts
			if len(starts) == 0 {
				continue
			}
			sr.extract(side, starts, st)
			sr.labelWalk(side, starts, rank, int32(want), st)
		}
	}

	// Meta-edges on shortest meta-paths of minimizing pairs → Δ arcs,
	// each meta-edge once per query: metaGen[k] == metaCur marks k as
	// emitted. A pooled searcher outlives 2³² queries; when the generation
	// wraps, stamps left by the queries 2³² back would read as "emitted"
	// and their Δ arcs would be dropped, so the stamps are wiped and the
	// count restarts above the 0 a wiped stamp holds.
	sr.metaCur++
	if sr.metaCur == 0 {
		clear(sr.metaGen)
		sr.metaCur = 1
	}
	for _, p := range sr.pairs {
		if p.R == p.RPrime {
			continue
		}
		sr.metaBuf = ix.ms.metaSPGEdges(p.R, p.RPrime, sr.metaBuf)
		for _, k := range sr.metaBuf {
			if sr.metaGen[k] == sr.metaCur {
				continue
			}
			sr.metaGen[k] = sr.metaCur
			for _, e := range ix.delta[k] {
				sr.out = append(sr.out, graph.Arc{From: e.U, To: e.W})
			}
		}
	}
}

// labelWalk adds all shortest paths between each start vertex and
// landmark rank, walking side's arcs with its label distances going down
// to 1 and finally attaching to the landmark itself. Interior vertices
// are non-landmarks by construction of the labelling.
//
//qbs:zeroalloc
func (sr *Searcher) labelWalk(side *searchSide, starts []graph.V, rank int, delta int32, st *QueryStats) {
	ix := sr.ix
	col := side.labels[rank]
	rv := ix.landmarks[rank]
	sr.walkMark.Reset()
	cur := sr.walkCur[:0]
	for _, w := range starts {
		if !sr.walkMark.Seen(w) {
			sr.walkMark.Mark(w)
			cur = append(cur, w)
		}
	}
	rows := side.ws.RowsAhead(side.push)
	for ; delta > 1; delta-- {
		next := sr.walkNext[:0]
		want := uint8(delta - 1)
		for i, x := range cur {
			rows.At(cur, i)
			for _, y := range side.push.Neighbors(x) {
				st.ArcsScanned++
				if ix.landIdx[y] >= 0 {
					continue
				}
				if col[y] == want {
					sr.emit(side, x, y)
					if !sr.walkMark.Seen(y) {
						sr.walkMark.Mark(y)
						next = append(next, y)
					}
				}
			}
		}
		sr.walkNext = cur[:0]
		cur = next
	}
	for _, x := range cur {
		sr.emit(side, x, rv)
	}
	sr.walkCur = cur[:0]
}
