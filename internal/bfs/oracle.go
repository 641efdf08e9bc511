package bfs

import "qbs/internal/graph"

// OracleSPG computes the shortest path graph between u and v by brute
// force: two full BFSes and an edge filter. An edge {x, y} lies on a
// shortest u–v path iff d(u,x) + 1 + d(y,v) = d(u,v) in one orientation.
// This is the ground-truth implementation every query algorithm in the
// repository is tested against. O(|V| + |E|) per query but with full
// scans and allocations — not for production use.
func OracleSPG(g graph.Adjacency, u, v graph.V) *graph.SPG {
	s := graph.NewSPG(u, v)
	if u == v {
		s.Dist = 0
		return s
	}
	distU := Distances(g, u)
	if distU[v] == Infinity {
		return s
	}
	distV := Distances(g, v)
	d := distU[v]
	s.Dist = d
	for x := graph.V(0); x < graph.V(g.NumVertices()); x++ {
		if distU[x] == Infinity {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if x < y && onShortest(distU, distV, d, x, y) {
				s.AddEdge(x, y)
			}
		}
	}
	return s
}

func onShortest(distU, distV []int32, d int32, x, y graph.V) bool {
	if distU[x] != Infinity && distV[y] != Infinity && distU[x]+1+distV[y] == d {
		return true
	}
	return distU[y] != Infinity && distV[x] != Infinity && distU[y]+1+distV[x] == d
}

// OracleDiSPG computes the directed shortest path graph by brute force:
// forward distances from u over out-arcs, backward distances to v over
// in-arcs, and the arc filter d(u,x) + 1 + d(y,v) = d(u,v). The directed
// ground truth for tests.
func OracleDiSPG(g *graph.Graph, u, v graph.V) *graph.SPG {
	s := graph.NewDiSPG(u, v)
	if u == v {
		s.Dist = 0
		return s
	}
	from := Distances(g.OutView(), u)
	if from[v] == Infinity {
		return s
	}
	to := Distances(g.InView(), v)
	d := from[v]
	s.Dist = d
	for x := graph.V(0); x < graph.V(g.NumVertices()); x++ {
		if from[x] == Infinity || from[x] >= d {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if to[y] != Infinity && from[x]+1+to[y] == d {
				s.AddEdge(x, y)
			}
		}
	}
	return s
}
