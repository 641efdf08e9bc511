package bfs

import "qbs/internal/graph"

// Directed BFS kernels and baselines, mirroring the undirected ones (the
// paper's directed extension).

// DiDistancesFrom runs a forward BFS over out-arcs from source.
func DiDistancesFrom(g *graph.DiGraph, source graph.V) []int32 {
	return diDistances(g, source, true)
}

// DiDistancesTo runs a backward BFS over in-arcs toward target: the
// result is d(v → target) for every v.
func DiDistancesTo(g *graph.DiGraph, target graph.V) []int32 {
	return diDistances(g, target, false)
}

func diDistances(g *graph.DiGraph, root graph.V, forward bool) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[root] = 0
	queue := make([]graph.V, 1, 1024)
	queue[0] = root
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		var ns []graph.V
		if forward {
			ns = g.Out(u)
		} else {
			ns = g.In(u)
		}
		for _, w := range ns {
			if dist[w] == Infinity {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// OracleDiSPG computes the directed shortest path graph by brute force:
// forward distances from u, backward distances to v, and the arc filter
// d(u,x) + 1 + d(y,v) = d(u,v). The directed ground truth for tests.
func OracleDiSPG(g *graph.DiGraph, u, v graph.V) *graph.DiSPG {
	s := graph.NewDiSPG(u, v)
	if u == v {
		s.Dist = 0
		return s
	}
	from := DiDistancesFrom(g, u)
	if from[v] == Infinity {
		return s
	}
	to := DiDistancesTo(g, v)
	d := from[v]
	s.Dist = d
	for x := graph.V(0); x < graph.V(g.NumVertices()); x++ {
		if from[x] == Infinity || from[x] >= d {
			continue
		}
		for _, y := range g.Out(x) {
			if to[y] != Infinity && from[x]+1+to[y] == d {
				s.AddArc(x, y)
			}
		}
	}
	return s
}

// DiBidirectional is the directed bidirectional-BFS baseline: a forward
// search from u over out-arcs and a backward search from v over in-arcs
// expand alternately until they meet; the reverse extraction walks both
// depth structures. Reusable across queries; not safe for concurrent
// use.
type DiBidirectional struct {
	g        *graph.DiGraph
	fwd, bwd *Workspace
	ext      *Extractor
	meet     []graph.V
	pairs    []graph.Arc
}

// NewDiBidirectional creates a searcher for g.
func NewDiBidirectional(g *graph.DiGraph) *DiBidirectional {
	n := g.NumVertices()
	return &DiBidirectional{
		g:   g,
		fwd: NewWorkspace(n),
		bwd: NewWorkspace(n),
		ext: NewExtractor(n),
	}
}

// Query computes DiSPG(u, v) and work counters.
func (b *DiBidirectional) Query(u, v graph.V) (*graph.DiSPG, SearchStats) {
	var stats SearchStats
	spg := graph.NewDiSPG(u, v)
	if u == v {
		spg.Dist = 0
		return spg, stats
	}
	g := b.g
	b.fwd.Reset()
	b.bwd.Reset()
	b.fwd.SetDist(u, 0)
	b.bwd.SetDist(v, 0)
	fs := []graph.V{u}
	bs := []graph.V{v}
	var du, dv int32
	sizeF, sizeB := 1, 1
	meet := b.meet[:0]
	defer func() { b.meet = meet[:0] }()

	for len(fs) > 0 && len(bs) > 0 {
		if sizeF <= sizeB {
			fs = b.expand(fs, b.fwd, du, true, &stats)
			du++
			sizeF += len(fs)
			for _, w := range fs {
				if b.bwd.Seen(w) {
					meet = append(meet, w)
				}
			}
		} else {
			bs = b.expand(bs, b.bwd, dv, false, &stats)
			dv++
			sizeB += len(bs)
			for _, w := range bs {
				if b.fwd.Seen(w) {
					meet = append(meet, w)
				}
			}
		}
		if len(meet) > 0 {
			break
		}
	}
	if len(meet) == 0 {
		return spg, stats
	}
	d := du + dv
	cut := meet[:0]
	for _, w := range meet {
		if b.fwd.Dist(w)+b.bwd.Dist(w) == d {
			cut = append(cut, w)
		}
	}
	pairs, nf := b.ext.Extract(g.InView(), false, b.pairs[:0], cut, b.fwd)
	pairs, nb := b.ext.Extract(g.OutView(), true, pairs, cut, b.bwd)
	stats.ArcsScanned += nf + nb
	b.pairs = pairs
	spg.Fill(d, pairs)
	return spg, stats
}

func (b *DiBidirectional) expand(frontier []graph.V, ws *Workspace, d int32, forward bool, stats *SearchStats) []graph.V {
	var next []graph.V
	for _, x := range frontier {
		var ns []graph.V
		if forward {
			ns = b.g.Out(x)
		} else {
			ns = b.g.In(x)
		}
		stats.ArcsScanned += int64(len(ns))
		for _, y := range ns {
			if !ws.Seen(y) {
				ws.SetDist(y, d+1)
				stats.VerticesVisited++
				next = append(next, y)
			}
		}
	}
	return next
}
