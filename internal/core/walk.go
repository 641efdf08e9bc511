package core

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// LabelWalk reads shortest paths to a landmark off that landmark's label
// column — the one routine that does, for the Δ lists (§5.2) and for
// recover's G^L (Algorithm 4). It keeps its marks and one buffer that
// holds a walk's levels end to end between walks, so a warm walk
// allocates nothing: the buffer's high-water mark is the largest walk's
// vertex count, whatever order the walks come in. Not safe for
// concurrent use.
type LabelWalk struct {
	mark   *traverse.Marks
	levels []graph.V
}

func newLabelWalk(n int) LabelWalk { return LabelWalk{mark: traverse.NewMarks(n)} }

// run appends to out every arc of the shortest paths from root to the
// landmark of rank that avoid every other landmark, and returns it with
// the number of arcs scanned. col is the landmark's label column, sigma
// the root's label in it (σ of the meta-edge when the root is itself a
// landmark). The walk starts at the root, steps over push arcs to the
// neighbours whose label is one less, level by level, and attaches the
// last level, at label 1, to the landmark. A landmark's row holds
// NoEntry in every column, which is never a label sought, so the walk
// steps onto no landmark without asking which vertices are landmarks.
// Each arc is appended once, as stepped (x→y), or y→x when backward: a
// vertex is on one level, once, and a row holds each neighbour once.
// rows requests the rows a block ahead.
//
// The walk is exact. A vertex y reached k label-decreasing hops from the
// root has label σ−k, a distance to the landmark that some avoiding
// shortest path realises, so it is at distance at least σ−(σ−k) = k from
// the root, and the hops are a shortest root→y path. Conversely every
// vertex on an avoiding shortest root→landmark path has, k hops from the
// root, distance σ−k to the landmark along it, which its label holds. So
// from a landmark root a the walk visits exactly the vertices with
// δ_aw + δ_wb = σ(a→b) and emits exactly the arcs joining consecutive
// ones; from a query endpoint it emits the endpoint's side of G^L.
//
//qbs:zeroalloc
func (w *LabelWalk) run(out []graph.Arc, sh *Shell, push graph.Adjacency, rows traverse.RowsAhead, backward bool, col []uint8, rank int, root graph.V, sigma int32) ([]graph.Arc, int64) {
	var arcs int64
	w.mark.Reset()
	levels := append(w.levels[:0], root)
	lo, hi := 0, 1 // the level at hand is levels[lo:hi]
	for ; sigma > 1; sigma-- {
		want := uint8(sigma - 1)
		for i := lo; i < hi; i++ {
			x := levels[i]
			rows.At(levels[:hi], i)
			for _, y := range push.Neighbors(x) {
				arcs++
				if col[y] != want {
					continue
				}
				out = appendArc(out, x, y, backward)
				if !w.mark.Seen(y) {
					w.mark.Mark(y)
					levels = append(levels, y)
				}
			}
		}
		lo, hi = hi, len(levels)
	}
	for _, x := range levels[lo:hi] {
		out = appendArc(out, x, sh.landmarks[rank], backward)
	}
	w.levels = levels[:0]
	return out, arcs
}

// appendArc appends x→y, or y→x when backward.
//
//qbs:zeroalloc
func appendArc(out []graph.Arc, x, y graph.V, backward bool) []graph.Arc {
	if backward {
		x, y = y, x
	}
	return append(out, graph.Arc{From: x, To: y})
}
