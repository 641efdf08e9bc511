package bfs

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Extractor performs the paper's reverse search with reusable buffers:
// starting from vertices of one depth, walk the levels of one search
// side downward toward its root (depth decreases by exactly 1 per
// step), emitting every DAG arc as an oriented pair.
//
// A step takes cur, the vertices at depth k still to extract, to their
// predecessors at depth k−1, and does so in one of two forms that
// enumerate exactly the arcs between the two sets:
//
//   - pull: scan the reverse row of every vertex of cur and keep the
//     entries at depth k−1;
//   - push: scan the row of every vertex of level k−1 and keep the
//     entries in cur, one bit of the extractor's marks each.
//
// The step takes whichever reads fewer rows by count: push when level
// k−1 has no more vertices than cur. Push rows of level k−1 are the ones
// the expansion read to build level k, so they are often still cached;
// pull rows of an answer vertex were never read by the search. The
// choice depends only on the two lengths.
//
// push is the side's adjacency and pull its reverse: the out-arcs and
// in-arcs of a forward side, the other way round for a backward one,
// the graph itself twice when undirected. A predecessor y of x is
// emitted as the side's arc y→x, which on a backward side is x→y in the
// graph (Side.Arc).
//
// In the QbS guided search the side's depths are over the sparsified
// graph G⁻: landmarks carry a negative sentinel depth, are listed in no
// level and are skipped automatically. A warmed extractor keeps the
// query path allocation-free: one buffer holds an extraction's levels
// end to end, so its high-water mark is the largest extraction's, and a
// pass over the same queries in any order never grows it again. (Two
// level buffers swapped per step would leave each level in whichever
// buffer the step count's parity gives it, so a second pass could
// still grow one.)
type Extractor struct {
	mark   *traverse.Marks // every vertex that has been in cur, or is in next
	levels []graph.V       // the levels of one extraction, end to end
	force  stepForm        // test hook: steps all in one form (export_test.go)
}

// stepForm picks the form of every step; the zero value applies the rule.
type stepForm uint8

const (
	byRule stepForm = iota
	allPull
	allPush
)

// NewExtractor creates an extractor for graphs with n vertices.
func NewExtractor(n int) *Extractor {
	return &Extractor{mark: traverse.NewMarks(n)}
}

// Extract runs the reverse search from the given vertices of side s,
// appending the arcs to out, and returns out plus the number of
// adjacency entries scanned (for traversal ablations). The given
// vertices share one depth, at most the side's last completed level.
// The last step scans none: the only predecessor a depth-1 vertex can
// have is the root. The rows of a step are requested a block ahead
// through the side's workspace (traverse.RowsAhead).
//
//qbs:zeroalloc
func (e *Extractor) Extract(s *Side, out []graph.Arc, from []graph.V) ([]graph.Arc, int64) {
	e.mark.Reset()
	var arcs, scanned int64
	levels := e.levels[:0]
	for _, w := range from {
		if !e.mark.Seen(w) {
			e.mark.Mark(w)
			levels = append(levels, w)
		}
	}
	pushRows, pullRows := s.WS.RowsAhead(s.Push), s.WS.RowsAhead(s.pull)
	for lo := 0; lo < len(levels); {
		cur := levels[lo:]
		k := s.WS.Dist(cur[0])
		if k <= 0 {
			break
		}
		if k == 1 {
			for _, x := range cur {
				out = append(out, s.Arc(s.Root(), x))
			}
			break
		}
		below := s.Level(k - 1)
		lo = len(levels)
		if e.pushes(len(below), len(cur)) {
			out, levels, scanned = e.pushStep(s, pushRows, out, below, levels)
		} else {
			out, levels, scanned = e.pullStep(s, pullRows, out, cur, k, levels)
		}
		arcs += scanned
	}
	e.levels = levels[:0]
	return out, arcs
}

// pushes reports whether a step from a cur of curLen vertices to a
// level of below vertices scans the push rows of that level.
//
//qbs:zeroalloc
func (e *Extractor) pushes(below, curLen int) bool {
	switch e.force {
	case allPull:
		return false
	case allPush:
		return true
	}
	return below <= curLen
}

// pullStep emits y→x for every x of cur (depth k) and every y at depth
// k−1 in x's reverse row, and appends each such y to next once.
//
//qbs:zeroalloc
func (e *Extractor) pullStep(s *Side, rows traverse.RowsAhead, out []graph.Arc, cur []graph.V, k int32, next []graph.V) ([]graph.Arc, []graph.V, int64) {
	var arcs int64
	pull, ws := s.pull, s.WS
	for i, x := range cur {
		rows.At(cur, i)
		ns := pull.Neighbors(x)
		arcs += int64(len(ns))
		for _, y := range ns {
			if ws.Seen(y) && ws.Dist(y) == k-1 {
				out = append(out, s.Arc(y, x))
				if !e.mark.Seen(y) {
					e.mark.Mark(y)
					next = append(next, y)
				}
			}
		}
	}
	return out, next, arcs
}

// pushStep emits x→y for every x of below (level k−1) and every y of cur
// in x's row, and appends to next each x that has one. The row of a
// vertex at depth k−1 holds nothing deeper than k, and every marked
// vertex at depth k is in cur, so membership in cur is one mark bit —
// provided the x taken into next are marked only once the level has
// been scanned, since the level may hold arcs among its own vertices.
//
//qbs:zeroalloc
func (e *Extractor) pushStep(s *Side, rows traverse.RowsAhead, out []graph.Arc, below []graph.V, next []graph.V) ([]graph.Arc, []graph.V, int64) {
	var arcs int64
	push, start := s.Push, len(next)
	for i, x := range below {
		rows.At(below, i)
		ns := push.Neighbors(x)
		arcs += int64(len(ns))
		hit := len(out)
		for _, y := range ns {
			if e.mark.Seen(y) {
				out = append(out, s.Arc(x, y))
			}
		}
		if len(out) > hit {
			next = append(next, x)
		}
	}
	for _, x := range next[start:] {
		e.mark.Mark(x)
	}
	return out, next, arcs
}
