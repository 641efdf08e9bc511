package core

import (
	"slices"

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
// With label entries capped at |R| per endpoint, the pair scan is O(|R|²).
// The meta-edges of a pair are a row of the meta state's precomputed
// shortest-meta-path table (an O(|meta|) scan only where that table was
// capped out), read by the one walk recover expands Δ from.
//
// The sketch lives in the Searcher's buffers (Searcher.computeSketch);
// Searcher.Sketch copies it out.

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

// Sketch is the paper's S_uv: an allocated copy of the sketch a query
// computes, returned by Searcher.Sketch for introspection (/sketch,
// Reader.Sketch, tests and the sketch-effectiveness benchmarks).
type Sketch struct {
	U, V graph.V
	// DTop is d⊤_uv, the length of the shortest u–v path through at least
	// one landmark (graph.InfDist when no such path exists).
	DTop int32
	// Pairs are the minimizing landmark pairs, u's entries outer.
	Pairs []SketchPair
	// USide and VSide are the sketch edges at u and v, one per landmark,
	// in the order Pairs first names them. For a landmark endpoint the
	// side holds the single virtual entry (rank(t), 0).
	USide, VSide []SketchEndpoint
	// MetaEdges are indices into Index.MetaEdges() of meta-edges on
	// shortest r–r' meta-paths of minimizing pairs, each once, in the
	// order of the first pair whose meta-paths hold it.
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

// Sketch computes S_uv with the sketch every query runs and returns an
// allocated copy of it; the searcher keeps none of it.
func (sr *Searcher) Sketch(u, v graph.V) *Sketch {
	s := &Sketch{U: u, V: v, DTop: sr.computeSketch(u, v)}
	if s.DTop != graph.InfDist {
		s.Pairs = slices.Clone(sr.pairs)
		s.USide = sr.fwd.sketchEdges()
		s.VSide = sr.bwd.sketchEdges()
		for _, k := range sr.sketchMetaEdges() {
			s.MetaEdges = append(s.MetaEdges, int(k))
		}
	}
	sr.releaseSketch()
	return s
}

// sketchEdges copies the sketch edges kept at the side's endpoint.
func (s *searchSide) sketchEdges() []SketchEndpoint {
	es := make([]SketchEndpoint, len(s.ranks))
	for i, r := range s.ranks {
		es[i] = SketchEndpoint{Rank: r, Sigma: s.sigma[r]}
	}
	return es
}

// sketchMetaEdges lists the sketch's meta-edges: those on shortest r→r'
// meta-paths of the minimizing pairs, each once, in pair order. The list
// is the searcher's, overwritten by the next call.
//
// Each meta-edge is kept once per call: metaGen[k] == metaCur marks k as
// kept. A pooled searcher outlives 2³² queries; when the generation
// wraps, stamps left by the calls 2³² back would read as "kept" and the
// meta-edges would be dropped, so the stamps are wiped and the count
// restarts above the 0 a wiped stamp holds.
func (sr *Searcher) sketchMetaEdges() []int32 {
	ms := sr.ix.ms
	sr.metaCur++
	if sr.metaCur == 0 {
		clear(sr.metaGen)
		sr.metaCur = 1
	}
	kept := sr.metaKept[:0]
	for _, p := range sr.pairs {
		if p.R == p.RPrime {
			continue
		}
		ids := ms.metaSPGEdges(p.R, p.RPrime, sr.metaBuf)
		if ms.spg == nil {
			sr.metaBuf = ids // scratch only: a table row is the meta state's
		}
		for _, k := range ids {
			if sr.metaGen[k] != sr.metaCur {
				sr.metaGen[k] = sr.metaCur
				kept = append(kept, k)
			}
		}
	}
	sr.metaKept = kept
	return kept
}
