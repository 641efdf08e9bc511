package traverse

import "qbs/internal/graph"

// ExpandMeeting grows one side of a bidirectional BFS by one level, the
// one expansion kernel every query runs: a sequential push sweep over
// the frontier. ws is the side's workspace and push its arcs; all
// per-vertex state lives in ws, so the call composes with whatever the
// searcher put there (any vertex already Seen, such as the sentinel
// depth QbS gives its removed landmarks, is never re-discovered).
//
// frontier is the depth-d level — every vertex of ws that is seen but
// not yet settled, or the root(s) the caller SetDist to d — and is
// settled at d here; its unseen neighbours are marked seen (depth d+1
// pending, stored by the next call), appended to dst and returned. The
// last result counts adjacency entries examined, each once however many
// sweeps looked at it.
//
// other is the opposite side's workspace, and a reached vertex y is
// tested against its visited bits as well as ws's. A vertex unseen here
// and seen there is a meeting: the arc x→y that reached it (x on the
// frontier, push orientation) is appended to cross, and y does not join
// the level. The call therefore returns EITHER the complete level d+1
// and no new crossing arc, OR every crossing arc out of the frontier: a
// level that met settles its frontier and otherwise leaves ws's visited
// set and dst as they were.
//
// Provided the two searches only ever grew through this call, no vertex
// is in both visited sets while no arc has crossed (a vertex the caller
// SetDist in both, such as a removed landmark, is skipped as seen here),
// so every y lies on other's outermost level and the pair's distance is
// d + 1 + other's completed depth.
//
// first lets the call return at the first crossing arc — all a distance
// query needs. A nil other is a plain BFS level.
//
// The function has no state of its own: it is as safe for concurrent use
// as the workspaces handed to it, which are single-owner. See "Memory
// access" in the package documentation for the order it reads rows in.
//
//qbs:zeroalloc
func ExpandMeeting(push graph.Adjacency, ws, other *Workspace, frontier []graph.V, d int32, dst []graph.V, cross []graph.Arc, first bool) ([]graph.V, []graph.Arc, int64) {
	ws.settle(frontier, d)
	seen := &ws.seen
	// Without another side the second test reads the bit the first just
	// found clear.
	mine := seen.words
	theirs := mine
	if other != nil {
		theirs = other.seen.words
	}
	base, had := len(dst), len(cross)
	rows := ws.RowsAhead(push)
	var arcs int64

	// A level of a search that is still growing geometrically is as likely
	// to be its last as all the earlier ones together, and as large: sweep
	// it once testing only, and mark nothing if it meets.
	if other != nil && len(frontier) >= geometric*(int(d)+1) {
		for i, x := range frontier {
			rows.At(frontier, i)
			ns := push.Neighbors(x)
			arcs += int64(len(ns))
			for _, y := range ns {
				w, bit := uint32(y)>>6, uint64(1)<<(uint(y)&63)
				if theirs[w]&bit != 0 && mine[w]&bit == 0 {
					cross = append(cross, graph.Arc{From: x, To: y})
					if first {
						return dst, cross, arcs
					}
				}
			}
		}
		if len(cross) > had {
			return dst, cross, arcs
		}
		// Nothing crosses: the marking sweep need not look at the other
		// side again, and counts the same rows over.
		theirs, arcs = mine, 0
	}

	logged := len(seen.touched)
sweep:
	for i, x := range frontier {
		rows.At(frontier, i)
		ns := push.Neighbors(x)
		arcs += int64(len(ns))
		for _, y := range ns {
			w, bit := uint32(y)>>6, uint64(1)<<(uint(y)&63)
			m, t := mine[w], theirs[w]
			if m&bit != 0 {
				continue
			}
			if t&bit != 0 {
				cross = append(cross, graph.Arc{From: x, To: y})
				if first {
					break sweep
				}
				continue
			}
			if len(cross) == had {
				seen.Mark(y)
				dst = append(dst, y)
			}
		}
	}
	if len(cross) > had {
		// The level met part-way through: take back what it marked.
		seen.unmark(dst[base:], logged)
		dst = dst[:base]
	}
	return dst, cross, arcs
}
