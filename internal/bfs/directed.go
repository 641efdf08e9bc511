package bfs

import "qbs/internal/graph"

// Directed distance BFS and the directed oracle, mirroring the
// undirected ones (the paper's directed extension). The directed Bi-BFS
// baseline is bibfs.go's search over the (out, in) pair.

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
func OracleDiSPG(g *graph.DiGraph, u, v graph.V) *graph.SPG {
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
				s.AddEdge(x, y)
			}
		}
	}
	return s
}
