package core

import (
	"qbs/internal/graph"
)

// Sketch construction (Algorithm 3): for a query pair (u, v), combine the
// label entries of u (distances to landmarks) and of v (distances from
// landmarks) with the meta-graph APSP to obtain
//
//	d⊤_uv = min { δ_ur + d_M(r, r') + δ_r'v }
//
// over all label pairs (Definition 4.5, Eq. 3), and record the minimizing
// landmark pairs. The sketch's edges are: (u, r) and (r', v) for each
// minimizing pair, plus every meta-edge on a shortest r–r' path in M.
// With label entries capped at |R| per endpoint, the pair scan is O(|R|²)
// and meta-edge enumeration O(|R|²) per minimizing pair.

// SketchEndpoint is a sketch edge incident to a query endpoint: the
// landmark rank and σ_S = the labelled distance.
type SketchEndpoint struct {
	Rank  int
	Sigma int32
}

// SketchPair is a minimizing landmark pair (ranks into Landmarks()).
type SketchPair struct {
	R, RPrime int
}

// Sketch is the paper's S_uv. It is produced by Index.Sketch and consumed
// by the guided search; tests and the sketch-effectiveness benchmarks
// introspect it.
type Sketch struct {
	U, V graph.V
	// DTop is d⊤_uv, the length of the shortest u–v path through at least
	// one landmark (graph.InfDist when no such path exists).
	DTop int32
	// DStarU and DStarV are the per-side search bounds of Eq. 4:
	// max σ_S(r, t) − 1 over sketch edges at that endpoint (0 when the
	// endpoint has no sketch edges). Introspection only: the search no
	// longer steers by them.
	DStarU, DStarV int32
	// Pairs are the minimizing landmark pairs.
	Pairs []SketchPair
	// USide and VSide are the sketch edges at u and v, deduplicated by
	// landmark. For a landmark endpoint the side holds the single virtual
	// entry (rank(t), 0).
	USide, VSide []SketchEndpoint
	// MetaEdges are indices into Index.MetaEdges() of meta-edges on
	// shortest r–r' meta-paths of minimizing pairs.
	MetaEdges []int
}

// entryList materialises the entries of t in one labelling, treating a
// landmark endpoint as carrying the single virtual entry (rank(t), 0): a
// landmark reaches itself by the empty path, which trivially avoids all
// other landmarks.
func (ix *Index) entryList(t graph.V, labels [][]uint8, buf []SketchEndpoint) []SketchEndpoint {
	buf = buf[:0]
	if ri := ix.landIdx[t]; ri >= 0 {
		return append(buf, SketchEndpoint{Rank: int(ri), Sigma: 0})
	}
	for i := range labels {
		if d := labels[i][t]; d != NoEntry {
			buf = append(buf, SketchEndpoint{Rank: i, Sigma: int32(d)})
		}
	}
	return buf
}

// Sketch computes S_uv. It allocates the result; the query hot path uses
// the Searcher's internal variant instead.
func (ix *Index) Sketch(u, v graph.V) *Sketch {
	s := &Sketch{U: u, V: v, DTop: graph.InfDist}
	uEntries := ix.entryList(u, ix.labelTo, nil)
	vEntries := ix.entryList(v, ix.labelFrom, nil)

	// Pass 1: d⊤.
	for _, eu := range uEntries {
		row := eu.Rank * ix.numLand
		for _, ev := range vEntries {
			dm := ix.ms.distM[row+ev.Rank]
			if dm == graph.InfDist {
				continue
			}
			if pi := eu.Sigma + dm + ev.Sigma; pi < s.DTop {
				s.DTop = pi
			}
		}
	}
	if s.DTop == graph.InfDist {
		return s
	}

	// Pass 2: minimizing pairs and sketch edges.
	uSeen := make(map[int]int32)
	vSeen := make(map[int]int32)
	metaSeen := make(map[int]struct{})
	for _, eu := range uEntries {
		row := eu.Rank * ix.numLand
		for _, ev := range vEntries {
			dm := ix.ms.distM[row+ev.Rank]
			if dm == graph.InfDist || eu.Sigma+dm+ev.Sigma != s.DTop {
				continue
			}
			s.Pairs = append(s.Pairs, SketchPair{R: eu.Rank, RPrime: ev.Rank})
			uSeen[eu.Rank] = eu.Sigma
			vSeen[ev.Rank] = ev.Sigma
			if eu.Rank != ev.Rank {
				for k := range ix.ms.meta {
					if _, dup := metaSeen[k]; !dup && ix.ms.onMetaShortestPath(eu.Rank, ev.Rank, k) {
						metaSeen[k] = struct{}{}
						s.MetaEdges = append(s.MetaEdges, k)
					}
				}
			}
		}
	}
	for rank, sig := range uSeen {
		s.USide = append(s.USide, SketchEndpoint{Rank: rank, Sigma: sig})
		if sig-1 > s.DStarU {
			s.DStarU = sig - 1
		}
	}
	for rank, sig := range vSeen {
		s.VSide = append(s.VSide, SketchEndpoint{Rank: rank, Sigma: sig})
		if sig-1 > s.DStarV {
			s.DStarV = sig - 1
		}
	}
	return s
}
