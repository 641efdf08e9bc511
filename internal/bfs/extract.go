package bfs

import (
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Levels is one search side's visited vertices grouped by depth, as the
// side grew them: level i is Arena[Off[i]:Off[i+1]], level 0 is the root
// alone, and every level the side has completed is listed in full.
type Levels struct {
	Arena []graph.V
	Off   []int32
}

// level returns the vertices at depth i.
func (l Levels) level(i int32) []graph.V { return l.Arena[l.Off[i]:l.Off[i+1]] }

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
// choice depends only on the two lengths, so both bidirectional searches
// (the Bi-BFS baseline and the QbS guided search) make it alike.
//
// push is the side's adjacency and pull its reverse: the out-arcs and
// in-arcs of a forward search, the other way round for a backward one,
// the graph itself twice when undirected. A predecessor y of x is
// emitted as y→x; flip reverses that to x→y, which is what a backward
// side's predecessors are in the graph.
//
// It is shared by the Bi-BFS baselines and the QbS guided search (where
// ws holds depths over the sparsified graph G⁻ — landmarks carry a
// negative sentinel depth, are listed in no level and are skipped
// automatically); a warmed extractor keeps the query path
// allocation-free.
type Extractor struct {
	mark      *traverse.Marks // every vertex that has been in cur, or is in next
	cur, next []graph.V
	force     stepForm // test hook: steps all in one form (export_test.go)
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

// Extract runs the reverse search from the given vertices of the side
// whose depths ws holds and whose levels lv lists, appending the arcs
// to out, and returns out plus the number of adjacency entries scanned
// (for traversal ablations). The given vertices share one depth, at
// most the side's last completed level. The last step scans none: the
// only predecessor a depth-1 vertex can have is the root. The rows of a
// step are requested a block ahead through ws (traverse.RowsAhead).
//
//qbs:zeroalloc
func (e *Extractor) Extract(push, pull graph.Adjacency, flip bool, out []graph.Arc, from []graph.V, ws *Workspace, lv Levels) ([]graph.Arc, int64) {
	e.mark.Reset()
	var arcs, scanned int64
	cur := e.cur[:0]
	for _, w := range from {
		if !e.mark.Seen(w) {
			e.mark.Mark(w)
			cur = append(cur, w)
		}
	}
	next := e.next[:0]
	pushRows, pullRows := ws.RowsAhead(push), ws.RowsAhead(pull)
	for len(cur) > 0 {
		k := ws.Dist(cur[0])
		if k <= 0 {
			break
		}
		if k == 1 {
			root := lv.Arena[0]
			for _, x := range cur {
				out = append(out, orient(root, x, flip))
			}
			break
		}
		below := lv.level(k - 1)
		if e.pushes(len(below), len(cur)) {
			out, next, scanned = e.pushStep(push, pushRows, flip, out, below, next[:0])
		} else {
			out, next, scanned = e.pullStep(pull, pullRows, ws, flip, out, cur, k, next[:0])
		}
		arcs += scanned
		cur, next = next, cur
	}
	e.cur, e.next = cur[:0], next[:0]
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
func (e *Extractor) pullStep(pull graph.Adjacency, rows traverse.RowsAhead, ws *Workspace, flip bool, out []graph.Arc, cur []graph.V, k int32, next []graph.V) ([]graph.Arc, []graph.V, int64) {
	var arcs int64
	for i, x := range cur {
		rows.At(cur, i)
		ns := pull.Neighbors(x)
		arcs += int64(len(ns))
		for _, y := range ns {
			if ws.Seen(y) && ws.Dist(y) == k-1 {
				out = append(out, orient(y, x, flip))
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
func (e *Extractor) pushStep(push graph.Adjacency, rows traverse.RowsAhead, flip bool, out []graph.Arc, below []graph.V, next []graph.V) ([]graph.Arc, []graph.V, int64) {
	var arcs int64
	for i, x := range below {
		rows.At(below, i)
		ns := push.Neighbors(x)
		arcs += int64(len(ns))
		hit := len(out)
		for _, y := range ns {
			if e.mark.Seen(y) {
				out = append(out, orient(x, y, flip))
			}
		}
		if len(out) > hit {
			next = append(next, x)
		}
	}
	for _, x := range next {
		e.mark.Mark(x)
	}
	return out, next, arcs
}

// orient returns the arc between predecessor y and x as it lies in the
// graph: y→x, or x→y for a backward side.
func orient(y, x graph.V, flip bool) graph.Arc {
	if flip {
		return graph.Arc{From: x, To: y}
	}
	return graph.Arc{From: y, To: x}
}
