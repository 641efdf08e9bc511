package dcore

import (
	"time"

	"qbs/internal/bfs"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Directed guided search: forward BFS from u over out-arcs and backward
// BFS from v over in-arcs on the landmark-sparsified digraph, bounded by
// the directed sketch; then directed reverse and recover stages combined
// per Eq. 5. Each side expands through a direction-optimizing
// traverse.Expander (top-down while sparse, bottom-up through dense
// levels) exactly like the undirected searcher; landmarks carry a
// sentinel depth so both directions skip them with one Seen check.

// Searcher answers directed queries against a fixed Index. Not safe for
// concurrent use; create one per goroutine (they share the immutable
// Index).
type Searcher struct {
	ix         *Index
	g          *graph.DiGraph
	gOut, gIn  graph.Adjacency // pre-converted views (no per-query boxing)
	fwd, bwd   diSide
	ext        *bfs.DiExtractor
	walkMark   *traverse.Marks
	distSPG    *graph.DiSPG // scratch result for Distance (never escapes)
	entU, entV []sketchEntry
	pairs      []pair
	sigmaU     []int32
	sigmaV     []int32
	ranksU     []int
	ranksV     []int
	metaGen    []uint32
	metaCur    uint32
	walkCur    []graph.V
	walkNext   []graph.V
	starts     []graph.V
	meet       []graph.V
}

type sketchEntry struct {
	rank  int
	sigma int32
}

type pair struct{ r, rp int }

// diSide is one direction of the bidirectional search: a visited set
// with depths, a direction-optimizing expander and an arena of visited
// vertices grouped into levels.
type diSide struct {
	ws       *bfs.Workspace
	exp      *traverse.Expander
	arena    []graph.V
	levelOff []int32
	d        int32
}

func (s *diSide) reset(t graph.V) {
	s.ws.Reset()
	s.ws.SetDist(t, 0)
	s.arena = append(s.arena[:0], t)
	s.levelOff = append(s.levelOff[:0], 0, 1)
	s.d = 0
}

func (s *diSide) level(i int32) []graph.V { return s.arena[s.levelOff[i]:s.levelOff[i+1]] }
func (s *diSide) frontier() []graph.V     { return s.level(s.d) }
func (s *diSide) visited() int            { return len(s.arena) }

// NewSearcher creates a query workspace for ix.
func NewSearcher(ix *Index) *Searcher {
	n := ix.g.NumVertices()
	R := ix.numLand
	sr := &Searcher{
		ix:       ix,
		g:        ix.g,
		gOut:     ix.g.OutView(),
		gIn:      ix.g.InView(),
		ext:      bfs.NewDiExtractor(n),
		walkMark: traverse.NewMarks(n),
		distSPG:  graph.NewDiSPG(0, 0),
		sigmaU:   make([]int32, R),
		sigmaV:   make([]int32, R),
		metaGen:  make([]uint32, len(ix.meta)),
	}
	sr.fwd.ws = bfs.NewWorkspace(n)
	sr.bwd.ws = bfs.NewWorkspace(n)
	sr.fwd.exp = traverse.NewExpander(n)
	sr.bwd.exp = traverse.NewExpander(n)
	for i := 0; i < R; i++ {
		sr.sigmaU[i] = -1
		sr.sigmaV[i] = -1
	}
	return sr
}

// SetParallelism runs this searcher's guided expansions on p traverse
// pool workers when a level is large enough to pay for the fan-out;
// query results are bit-identical at every setting. 0 (the default)
// stays sequential — the right call for servers answering many queries
// concurrently.
func (sr *Searcher) SetParallelism(p int) {
	sr.fwd.exp.Parallelism = p
	sr.bwd.exp.Parallelism = p
}

// QueryStats reports directed per-query internals. Filled as an
// out-param on the warm path: plain fields, no allocation.
type QueryStats struct {
	Dist int32 // d_G(u → v); graph.InfDist if unreachable
	DTop int32 // the directed sketch bound d⊤

	// Engine counters surfaced from the traversal machinery.
	LabelEntries     int64 // label entries of u and v scanned by the sketch
	FrontierWords    int64 // visited-bitmap words swept by bottom-up expansion
	PushPullSwitches int64 // top-down ↔ bottom-up direction switches
	ParallelLevels   int64 // expansion levels run on the worker pool
	ParallelChunks   int64 // frontier chunks claimed by pool workers
	ParallelSteals   int64 // chunks claimed outside a worker's static share

	// Stage spans (monotonic-clock nanoseconds).
	SketchNs  int64
	ExpandNs  int64
	ExtractNs int64
}

// Query answers the directed SPG(u → v).
func (sr *Searcher) Query(u, v graph.V) *graph.DiSPG {
	spg := graph.NewDiSPG(u, v)
	sr.query(spg, u, v, true)
	return spg
}

// QueryWithStats answers SPG(u → v) and reports query internals —
// notably d⊤, which the serving layer would otherwise recompute with a
// second sketch pass.
func (sr *Searcher) QueryWithStats(u, v graph.V) (*graph.DiSPG, QueryStats) {
	spg := graph.NewDiSPG(u, v)
	return spg, sr.QueryInto(spg, u, v)
}

// QueryInto answers SPG(u → v) into a caller-owned result, resetting it
// first. Reusing one DiSPG across queries keeps the warm query path free
// of heap allocations (the arc buffer is recycled at its high-water
// mark).
//
//qbs:zeroalloc
func (sr *Searcher) QueryInto(spg *graph.DiSPG, u, v graph.V) QueryStats {
	spg.Reset(u, v)
	return sr.query(spg, u, v, true)
}

// Distance returns d_G(u → v) using the same sketch-guided machinery but
// skipping path extraction. It does not allocate on the warm path.
func (sr *Searcher) Distance(u, v graph.V) int32 {
	sr.distSPG.Reset(u, v)
	return sr.query(sr.distSPG, u, v, false).Dist
}

func (sr *Searcher) query(spg *graph.DiSPG, u, v graph.V, extract bool) QueryStats {
	ix := sr.ix
	g := sr.g
	var st QueryStats
	if u == v {
		spg.Dist = 0
		return st
	}

	t0 := time.Now()
	dTop, dStarU, dStarV := sr.computeSketch(u, v)
	defer sr.releaseSketch()
	st.DTop = dTop
	st.LabelEntries = int64(len(sr.entU) + len(sr.entV))
	t1 := time.Now()
	st.SketchNs = t1.Sub(t0).Nanoseconds()

	uLand := ix.landIdx[u] >= 0
	vLand := ix.landIdx[v] >= 0
	sr.fwd.reset(u)
	sr.bwd.reset(v)
	var meet []graph.V
	dGMinus := graph.InfDist
	if !uLand && !vLand {
		sr.fwd.exp.BeginDirected(sr.gOut, sr.gIn, ix.degsOut)
		sr.bwd.exp.BeginDirected(sr.gIn, sr.gOut, ix.degsIn)
		// Pre-mark landmarks with a sentinel depth so the expansion loop
		// skips them with a single Seen check — the implicit G⁻ = G[V\R],
		// honoured identically by top-down and bottom-up expansion.
		for _, r := range ix.landmarks {
			sr.fwd.ws.SetDist(r, -1)
			sr.bwd.ws.SetDist(r, -1)
		}
		meet = sr.bidirectional(dTop, dStarU, dStarV)
		st.FrontierWords = sr.fwd.exp.WordsSwept + sr.bwd.exp.WordsSwept
		st.PushPullSwitches = sr.fwd.exp.Switches + sr.bwd.exp.Switches
		st.ParallelLevels = sr.fwd.exp.ParallelLevels + sr.bwd.exp.ParallelLevels
		st.ParallelChunks = sr.fwd.exp.ParallelChunks + sr.bwd.exp.ParallelChunks
		st.ParallelSteals = sr.fwd.exp.ParallelSteals + sr.bwd.exp.ParallelSteals
		if len(meet) > 0 {
			dGMinus = sr.fwd.d + sr.bwd.d
		}
	}
	t2 := time.Now()
	st.ExpandNs = t2.Sub(t1).Nanoseconds()

	dist := dTop
	if dGMinus < dist {
		dist = dGMinus
	}
	spg.Dist = dist
	st.Dist = dist
	if dist == graph.InfDist {
		return st
	}

	if extract {
		if dGMinus == dist && len(meet) > 0 {
			cut := meet[:0]
			for _, w := range meet {
				if sr.fwd.ws.Dist(w)+sr.bwd.ws.Dist(w) == dist {
					cut = append(cut, w)
				}
			}
			sr.ext.Extract(g, spg, cut, sr.fwd.ws, true)
			sr.ext.Extract(g, spg, cut, sr.bwd.ws, false)
		}
		if dTop == dist {
			sr.recover(spg, uLand, vLand)
		}
	}
	st.ExtractNs = time.Since(t2).Nanoseconds()
	return st
}

func (sr *Searcher) computeSketch(u, v graph.V) (dTop, dStarU, dStarV int32) {
	ix := sr.ix
	R := ix.numLand
	sr.entU = sr.entU[:0]
	sr.entV = sr.entV[:0]
	if ri := ix.landIdx[u]; ri >= 0 {
		sr.entU = append(sr.entU, sketchEntry{rank: int(ri)})
	} else {
		base := int(u) * R
		for i := 0; i < R; i++ {
			if d := ix.labelTo[base+i]; d != NoEntry {
				sr.entU = append(sr.entU, sketchEntry{rank: i, sigma: int32(d)})
			}
		}
	}
	if ri := ix.landIdx[v]; ri >= 0 {
		sr.entV = append(sr.entV, sketchEntry{rank: int(ri)})
	} else {
		base := int(v) * R
		for i := 0; i < R; i++ {
			if d := ix.labelFrom[base+i]; d != NoEntry {
				sr.entV = append(sr.entV, sketchEntry{rank: i, sigma: int32(d)})
			}
		}
	}
	sr.pairs = sr.pairs[:0]
	dTop = graph.InfDist
	for _, eu := range sr.entU {
		row := eu.rank * R
		for _, ev := range sr.entV {
			dm := ix.distM[row+ev.rank]
			if dm == graph.InfDist {
				continue
			}
			if pi := eu.sigma + dm + ev.sigma; pi < dTop {
				dTop = pi
			}
		}
	}
	if dTop == graph.InfDist {
		return dTop, 0, 0
	}
	for _, eu := range sr.entU {
		row := eu.rank * R
		for _, ev := range sr.entV {
			dm := ix.distM[row+ev.rank]
			if dm == graph.InfDist || eu.sigma+dm+ev.sigma != dTop {
				continue
			}
			sr.pairs = append(sr.pairs, pair{r: eu.rank, rp: ev.rank})
			if sr.sigmaU[eu.rank] < 0 {
				sr.sigmaU[eu.rank] = eu.sigma
				sr.ranksU = append(sr.ranksU, eu.rank)
				if eu.sigma-1 > dStarU {
					dStarU = eu.sigma - 1
				}
			}
			if sr.sigmaV[ev.rank] < 0 {
				sr.sigmaV[ev.rank] = ev.sigma
				sr.ranksV = append(sr.ranksV, ev.rank)
				if ev.sigma-1 > dStarV {
					dStarV = ev.sigma - 1
				}
			}
		}
	}
	return dTop, dStarU, dStarV
}

func (sr *Searcher) releaseSketch() {
	for _, r := range sr.ranksU {
		sr.sigmaU[r] = -1
	}
	for _, r := range sr.ranksV {
		sr.sigmaV[r] = -1
	}
	sr.ranksU = sr.ranksU[:0]
	sr.ranksV = sr.ranksV[:0]
}

func (sr *Searcher) bidirectional(dTop, dStarU, dStarV int32) []graph.V {
	meet := sr.meet[:0]
	defer func() { sr.meet = meet[:0] }()
	for dTop == graph.InfDist || sr.fwd.d+sr.bwd.d < dTop {
		uWant := dStarU > sr.fwd.d && len(sr.fwd.frontier()) > 0
		vWant := dStarV > sr.bwd.d && len(sr.bwd.frontier()) > 0
		var side, other *diSide
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
				return nil
			}
		}
		sr.expand(side)
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

// expand grows side by one level over G⁻ through its
// direction-optimizing expander (the forward side is bound to the
// out-view, the backward side to the in-view, at query setup).
func (sr *Searcher) expand(side *diSide) {
	side.arena, _ = side.exp.Expand(side.ws, side.frontier(), side.d, side.arena)
	side.levelOff = append(side.levelOff, int32(len(side.arena)))
	side.d++
}

// recover reassembles the through-landmark directed paths.
func (sr *Searcher) recover(spg *graph.DiSPG, uLand, vLand bool) {
	ix := sr.ix
	g := sr.g
	R := ix.numLand

	if !uLand {
		for _, rank := range sr.ranksU {
			sigma := sr.sigmaU[rank]
			if sigma < 1 {
				continue
			}
			dm := sigma - 1
			if sr.fwd.d < dm {
				dm = sr.fwd.d
			}
			want := uint8(sigma - dm)
			starts := sr.starts[:0]
			for _, w := range sr.fwd.level(dm) {
				if ix.labelTo[int(w)*R+rank] == want {
					starts = append(starts, w)
				}
			}
			sr.starts = starts
			if len(starts) == 0 {
				continue
			}
			sr.ext.Extract(g, spg, starts, sr.fwd.ws, true)
			sr.labelWalkTo(spg, starts, rank, int32(want))
		}
	}
	if !vLand {
		for _, rank := range sr.ranksV {
			sigma := sr.sigmaV[rank]
			if sigma < 1 {
				continue
			}
			dm := sigma - 1
			if sr.bwd.d < dm {
				dm = sr.bwd.d
			}
			want := uint8(sigma - dm)
			starts := sr.starts[:0]
			for _, w := range sr.bwd.level(dm) {
				if ix.labelFrom[int(w)*R+rank] == want {
					starts = append(starts, w)
				}
			}
			sr.starts = starts
			if len(starts) == 0 {
				continue
			}
			sr.ext.Extract(g, spg, starts, sr.bwd.ws, false)
			sr.labelWalkFrom(spg, starts, rank, int32(want))
		}
	}

	sr.metaCur++
	for _, p := range sr.pairs {
		if p.r == p.rp {
			continue
		}
		for k := range ix.meta {
			if sr.metaGen[k] == sr.metaCur {
				continue
			}
			if ix.onMetaShortestPath(p.r, p.rp, k) {
				sr.metaGen[k] = sr.metaCur
				for _, a := range ix.delta[k] {
					spg.AddArc(a.From, a.To)
				}
			}
		}
	}
}

// labelWalkTo emits all avoiding shortest paths from each start vertex
// *to* landmark rank, walking out-arcs with labelTo decreasing.
func (sr *Searcher) labelWalkTo(spg *graph.DiSPG, starts []graph.V, rank int, delta int32) {
	ix := sr.ix
	g := sr.g
	R := ix.numLand
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
			for _, y := range g.Out(x) {
				if ix.landIdx[y] >= 0 {
					continue
				}
				if ix.labelTo[int(y)*R+rank] == want {
					spg.AddArc(x, y)
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
		spg.AddArc(x, rv)
	}
	sr.walkCur = cur[:0]
}

// labelWalkFrom emits all avoiding shortest paths *from* landmark rank
// to each start vertex, walking in-arcs with labelFrom decreasing.
func (sr *Searcher) labelWalkFrom(spg *graph.DiSPG, starts []graph.V, rank int, delta int32) {
	ix := sr.ix
	g := sr.g
	R := ix.numLand
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
			for _, y := range g.In(x) {
				if ix.landIdx[y] >= 0 {
					continue
				}
				if ix.labelFrom[int(y)*R+rank] == want {
					spg.AddArc(y, x)
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
		spg.AddArc(rv, x)
	}
	sr.walkCur = cur[:0]
}
