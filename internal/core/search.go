package core

import (
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Guided search (Algorithm 4): answer SPG(u, v) by a sketch-bounded
// bidirectional BFS over the sparsified graph G⁻ = G[V\R] (represented
// implicitly — landmark neighbours are skipped), followed by a reverse
// search extracting G⁻_uv and/or a recover search extracting G^L_uv (the
// shortest paths through landmarks), combined per Eq. 5:
//
//	d_G⁻(u,v) > d⊤  →  G^L only
//	d_G⁻(u,v) = d⊤  →  G⁻_uv ∪ G^L
//	d_G⁻(u,v) < d⊤  →  G⁻_uv only
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

	// Engine counters surfaced from the traversal machinery.
	LabelEntries     int64 // label entries of u and v scanned by the sketch
	FrontierWords    int64 // visited-bitmap words swept by bottom-up expansion
	PushPullSwitches int64 // top-down ↔ bottom-up direction switches
	ParallelLevels   int64 // expansion levels run on the worker pool
	ParallelChunks   int64 // frontier chunks claimed by pool workers
	ParallelSteals   int64 // chunks claimed outside a worker's static share

	// Stage spans (monotonic-clock nanoseconds).
	SketchNs  int64 // sketch assembly (Algorithm 3)
	ExpandNs  int64 // sketch-guided bidirectional BFS
	ExtractNs int64 // reverse/recover path extraction
}

// Searcher answers queries against a fixed Index. Not safe for
// concurrent use; create one per goroutine (they share the immutable
// Index).
type Searcher struct {
	ix  *Index
	g   graph.Adjacency
	deg []int32 // cached degree array (nil for dynamic snapshots)

	fwd, bwd searchSide
	ext      *bfs.Extractor  // reverse extraction with reusable buffers
	walkMark *traverse.Marks // scratch for label walks
	meet     []graph.V
	metaBuf  []int32
	distSPG  *graph.SPG // scratch result for Distance (never escapes)

	// sketch buffers
	entU, entV   []SketchEndpoint
	pairs        []SketchPair
	sideSigmaU   []int32 // per landmark rank: σ_S at u, -1 if absent
	sideSigmaV   []int32
	sideRanksU   []int
	sideRanksV   []int
	metaGen      []uint32 // per meta-edge dedup generation
	metaCur      uint32
	walkCur      []graph.V
	walkNext     []graph.V
	recoverStart []graph.V
}

// searchSide is one direction of the bidirectional search: a visited
// set with depths, a direction-optimizing expander and an arena of
// visited vertices grouped into levels
// (level i = arena[levelOff[i]:levelOff[i+1]]).
type searchSide struct {
	ws       *bfs.Workspace
	exp      *traverse.Expander
	arena    []graph.V
	levelOff []int32
	d        int32 // completed levels
}

func (s *searchSide) reset(t graph.V) {
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

// NewSearcher creates a query workspace for ix.
func NewSearcher(ix *Index) *Searcher {
	ix.EnsureDelta()
	n := ix.a.NumVertices()
	R := ix.numLand
	sr := &Searcher{
		ix:         ix,
		g:          ix.a,
		deg:        ix.degs,
		ext:        bfs.NewExtractor(n),
		walkMark:   traverse.NewMarks(n),
		sideSigmaU: make([]int32, R),
		sideSigmaV: make([]int32, R),
		metaGen:    make([]uint32, len(ix.ms.meta)),
		distSPG:    graph.NewSPG(0, 0),
	}
	sr.fwd.ws = bfs.NewWorkspace(n)
	sr.bwd.ws = bfs.NewWorkspace(n)
	sr.fwd.exp = traverse.NewExpander(n)
	sr.bwd.exp = traverse.NewExpander(n)
	for i := 0; i < R; i++ {
		sr.sideSigmaU[i] = -1
		sr.sideSigmaV[i] = -1
	}
	return sr
}

// SetParallelism runs this searcher's guided expansions on p traverse
// pool workers when a level is large enough to pay for the fan-out
// (see traverse.Expander.Parallelism). Query results are bit-identical
// at every setting; the default 0 keeps expansion sequential, which is
// the right call for servers answering many queries concurrently —
// intra-query parallelism only helps latency when cores are idle.
func (sr *Searcher) SetParallelism(p int) {
	sr.fwd.exp.Parallelism = p
	sr.bwd.exp.Parallelism = p
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
	if ix.a.NumVertices() != sr.ix.a.NumVertices() || ix.numLand != sr.ix.numLand {
		return false
	}
	ix.EnsureDelta()
	sr.ix = ix
	sr.g = ix.a
	sr.deg = ix.degs
	if len(sr.metaGen) < len(ix.ms.meta) {
		sr.metaGen = make([]uint32, len(ix.ms.meta))
		sr.metaCur = 0
	}
	return true
}

// Query answers SPG(u, v).
func (sr *Searcher) Query(u, v graph.V) *graph.SPG {
	spg := graph.NewSPG(u, v)
	sr.query(spg, u, v, true)
	return spg
}

// QueryInto answers SPG(u, v) into a caller-owned result, resetting it
// first. Reusing one SPG across queries makes the warm query path
// allocation-free (the edge buffer is recycled at its high-water mark).
//
//qbs:zeroalloc
func (sr *Searcher) QueryInto(spg *graph.SPG, u, v graph.V) QueryStats {
	spg.Reset(u, v)
	return sr.query(spg, u, v, true)
}

// Distance returns d_G(u, v) using the same sketch-guided machinery but
// skipping path extraction. It does not allocate on the warm path.
func (sr *Searcher) Distance(u, v graph.V) int32 {
	sr.distSPG.Reset(u, v)
	st := sr.query(sr.distSPG, u, v, false)
	return st.Dist
}

// QueryWithStats answers SPG(u, v) and reports query internals.
func (sr *Searcher) QueryWithStats(u, v graph.V) (*graph.SPG, QueryStats) {
	spg := graph.NewSPG(u, v)
	st := sr.query(spg, u, v, true)
	return spg, st
}

func (sr *Searcher) query(spg *graph.SPG, u, v graph.V, extract bool) QueryStats {
	g := sr.g
	ix := sr.ix
	var st QueryStats
	st.DGMinus = graph.InfDist
	if u == v {
		spg.Dist = 0
		st.Dist = 0
		st.Coverage = CoverageTrivial
		return st
	}

	// Sketching (Algorithm 3).
	t0 := time.Now()
	dTop, dStarU, dStarV := sr.computeSketch(u, v)
	st.DTop = dTop
	st.SketchPairs = len(sr.pairs)
	st.LabelEntries = int64(len(sr.entU) + len(sr.entV))
	t1 := time.Now()
	st.SketchNs = t1.Sub(t0).Nanoseconds()

	// Guided bidirectional search on G⁻ (skipped when an endpoint is a
	// landmark: every u–v path then trivially "passes through" it, so the
	// answer is entirely G^L).
	uLand := ix.landIdx[u] >= 0
	vLand := ix.landIdx[v] >= 0
	sr.fwd.reset(u)
	sr.bwd.reset(v)
	var meet []graph.V
	if !uLand && !vLand {
		sr.fwd.exp.Begin(g, sr.deg)
		sr.bwd.exp.Begin(g, sr.deg)
		// Pre-mark landmarks with a sentinel depth so the expansion
		// loop skips them with a single Seen check — this is the
		// implicit G⁻ = G[V\R], honoured identically by the expander's
		// top-down and bottom-up directions.
		for _, r := range ix.landmarks {
			sr.fwd.ws.SetDist(r, -1)
			sr.bwd.ws.SetDist(r, -1)
		}
		meet = sr.bidirectional(dTop, dStarU, dStarV, &st)
		st.FrontierWords = sr.fwd.exp.WordsSwept + sr.bwd.exp.WordsSwept
		st.PushPullSwitches = sr.fwd.exp.Switches + sr.bwd.exp.Switches
		st.ParallelLevels = sr.fwd.exp.ParallelLevels + sr.bwd.exp.ParallelLevels
		st.ParallelChunks = sr.fwd.exp.ParallelChunks + sr.bwd.exp.ParallelChunks
		st.ParallelSteals = sr.fwd.exp.ParallelSteals + sr.bwd.exp.ParallelSteals
	}
	if len(meet) > 0 {
		st.DGMinus = sr.fwd.d + sr.bwd.d
	}
	t2 := time.Now()
	st.ExpandNs = t2.Sub(t1).Nanoseconds()

	dist := dTop
	if st.DGMinus < dist {
		dist = st.DGMinus
	}
	st.Dist = dist
	spg.Dist = dist
	if dist == graph.InfDist {
		st.Coverage = CoverageTrivial
		sr.releaseSketch()
		return st
	}

	// Eq. 5: reverse and/or recover.
	if st.DGMinus == dist && len(meet) > 0 {
		st.UsedReverse = true
		if extract {
			cut := meet[:0]
			for _, w := range meet {
				if sr.fwd.ws.Dist(w)+sr.bwd.ws.Dist(w) == dist {
					cut = append(cut, w)
				}
			}
			st.ArcsScanned += sr.ext.Extract(g, spg, cut, sr.fwd.ws)
			st.ArcsScanned += sr.ext.Extract(g, spg, cut, sr.bwd.ws)
		}
	}
	if dTop == dist {
		st.UsedRecover = true
		if extract {
			sr.recover(spg, &st)
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
	sr.entU = ix.entryList(u, sr.entU)
	sr.entV = ix.entryList(v, sr.entV)
	sr.pairs = sr.pairs[:0]
	dTop = graph.InfDist
	for _, eu := range sr.entU {
		row := eu.Rank * R
		for _, ev := range sr.entV {
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
	for _, eu := range sr.entU {
		row := eu.Rank * R
		for _, ev := range sr.entV {
			dm := ix.ms.distM[row+ev.Rank]
			if dm == graph.InfDist || eu.Sigma+dm+ev.Sigma != dTop {
				continue
			}
			sr.pairs = append(sr.pairs, SketchPair{R: eu.Rank, RPrime: ev.Rank})
			if sr.sideSigmaU[eu.Rank] < 0 {
				sr.sideSigmaU[eu.Rank] = eu.Sigma
				sr.sideRanksU = append(sr.sideRanksU, eu.Rank)
				if eu.Sigma-1 > dStarU {
					dStarU = eu.Sigma - 1
				}
			}
			if sr.sideSigmaV[ev.Rank] < 0 {
				sr.sideSigmaV[ev.Rank] = ev.Sigma
				sr.sideRanksV = append(sr.sideRanksV, ev.Rank)
				if ev.Sigma-1 > dStarV {
					dStarV = ev.Sigma - 1
				}
			}
		}
	}
	return dTop, dStarU, dStarV
}

func (sr *Searcher) releaseSketch() {
	for _, r := range sr.sideRanksU {
		sr.sideSigmaU[r] = -1
	}
	for _, r := range sr.sideRanksV {
		sr.sideSigmaV[r] = -1
	}
	sr.sideRanksU = sr.sideRanksU[:0]
	sr.sideRanksV = sr.sideRanksV[:0]
}

// bidirectional runs the sketch-guided bidirectional BFS over G⁻ and
// returns the meeting vertices (empty if the searches exhausted or hit
// the d⊤ bound first). Side choice follows the paper: prefer the side
// whose bound d* has not been reached; tie-break on visited-set size.
func (sr *Searcher) bidirectional(dTop, dStarU, dStarV int32, st *QueryStats) []graph.V {
	meet := sr.meet[:0]
	defer func() { sr.meet = meet[:0] }()
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
		sr.expand(side, st)
		for _, w := range side.frontier() {
			if other.ws.Seen(w) {
				meet = append(meet, w)
			}
		}
		if len(meet) > 0 {
			return meet
		}
	}
	return nil
}

// expand grows side by one level over G⁻ through the
// direction-optimizing expander. Landmarks carry a sentinel depth from
// query setup, so a single Seen check skips both previously visited
// vertices and the removed landmarks in either direction.
func (sr *Searcher) expand(side *searchSide, st *QueryStats) {
	var arcs int64
	side.arena, arcs = side.exp.Expand(side.ws, side.frontier(), side.d, side.arena)
	st.ArcsScanned += arcs
	side.levelOff = append(side.levelOff, int32(len(side.arena)))
	side.d++
}

// recover computes G^L_uv: for each sketch endpoint edge (r, t), find the
// attachment vertices Z (closest-to-r vertices the search reached on
// shortest t–r paths), walk them back to t over the search depths and
// forward to r over the labelling; then expand every sketch meta-edge
// from the precomputed Δ.
func (sr *Searcher) recover(spg *graph.SPG, st *QueryStats) {
	g := sr.g
	ix := sr.ix

	sides := [2]struct {
		side  *searchSide
		land  bool
		ranks []int
		sigma []int32
	}{
		{&sr.fwd, ix.landIdx[spg.Source] >= 0, sr.sideRanksU, sr.sideSigmaU},
		{&sr.bwd, ix.landIdx[spg.Target] >= 0, sr.sideRanksV, sr.sideSigmaV},
	}
	for _, sd := range sides {
		if sd.land {
			continue // landmark endpoint: the meta-path starts at it directly
		}
		for _, rank := range sd.ranks {
			sigma := sd.sigma[rank]
			if sigma < 1 {
				// A non-landmark endpoint always has σ_S ≥ 1; this guards
				// against corrupted label bytes from an untrusted snapshot.
				continue
			}
			dm := sigma - 1
			if sd.side.d < dm {
				dm = sd.side.d
			}
			want := uint8(sigma - dm)
			starts := sr.recoverStart[:0]
			for _, w := range sd.side.level(dm) {
				if ix.labels[rank][w] == want {
					starts = append(starts, w)
				}
			}
			sr.recoverStart = starts
			if len(starts) == 0 {
				continue
			}
			st.ArcsScanned += sr.ext.Extract(g, spg, starts, sd.side.ws)
			sr.labelWalk(spg, starts, rank, int32(want), st)
		}
	}

	// Meta-edges on shortest meta-paths of minimizing pairs → Δ edges.
	sr.metaCur++
	for _, p := range sr.pairs {
		if p.R == p.RPrime {
			continue
		}
		sr.metaBuf = sr.ix.ms.metaSPGEdges(p.R, p.RPrime, sr.metaBuf)
		for _, k := range sr.metaBuf {
			if sr.metaGen[k] == sr.metaCur {
				continue
			}
			sr.metaGen[k] = sr.metaCur
			for _, e := range ix.delta[k] {
				spg.AddEdge(e.U, e.W)
			}
		}
	}
}

// labelWalk adds all shortest paths from each start vertex to landmark
// rank, walking label distances down to 1 and finally attaching to the
// landmark itself. Interior vertices are non-landmarks by construction of
// the labelling.
func (sr *Searcher) labelWalk(spg *graph.SPG, starts []graph.V, rank int, delta int32, st *QueryStats) {
	g := sr.g
	ix := sr.ix
	rv := ix.landmarks[rank]
	sr.walkMark.Reset()
	cur := sr.walkCur[:0]
	for _, w := range starts {
		if !sr.walkMark.Seen(w) {
			sr.walkMark.Mark(w)
			cur = append(cur, w)
		}
	}
	for ; delta > 1; delta-- {
		next := sr.walkNext[:0]
		want := uint8(delta - 1)
		for _, x := range cur {
			for _, y := range g.Neighbors(x) {
				st.ArcsScanned++
				if ix.landIdx[y] >= 0 {
					continue
				}
				if ix.labels[rank][y] == want {
					spg.AddEdge(x, y)
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
		spg.AddEdge(x, rv)
	}
	sr.walkCur = cur[:0]
}
