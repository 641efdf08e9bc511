package traverse

import (
	"slices"

	"qbs/internal/graph"
)

// ResidentArcs lets a test size a graph onto the block-ahead path.
const ResidentArcs = residentArcs

// SetAlpha sets mb's direction threshold: 0 keeps every level top-down,
// a negative value runs every level bottom-up.
func SetAlpha(mb *MultiBFS, alpha int64) { mb.alpha = alpha }

// SetPoolFloor sets the fewest vertices a bottom-up level of mb needs to
// run on the pool; 1 engages it on every bottom-up level.
func SetPoolFloor(mb *MultiBFS, n int) { mb.poolFloor = n }

// ReferenceExpand is ExpandMeeting as it stood at commit f535a26, kept
// as the oracle for the kernel that replaced it: one sweep in frontier
// order that tests and marks as it goes and stops marking at the first
// crossing arc. Its crossing arcs, its level (in order) and its arc count
// are what ExpandMeeting must return; only the marks it leaves behind on a
// level that met are not.
func ReferenceExpand(push graph.Adjacency, ws, other *Workspace, frontier []graph.V, d int32, dst []graph.V, cross []graph.Arc, first bool) ([]graph.V, []graph.Arc, int64) {
	ws.settle(frontier, d)
	seen := &ws.seen
	mine := seen.words
	theirs := mine
	if other != nil {
		theirs = other.seen.words
	}
	base, had := len(dst), len(cross)
	var arcs int64
	for _, x := range frontier {
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
					return dst[:base], cross, arcs
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
		dst = dst[:base]
	}
	return dst, cross, arcs
}

// WorkspaceState is everything a workspace holds for its searcher but
// the load sink: the seen words, the touched log's length, the settled
// bits, the depths and the pending depth.
type WorkspaceState struct {
	Seen, Settled []uint64
	Logged        int
	Dist          []int32
	Pending       int32
}

// StateOf copies ws's state.
func StateOf(ws *Workspace) WorkspaceState {
	return WorkspaceState{
		Seen:    slices.Clone(ws.seen.words),
		Settled: slices.Clone(ws.settled),
		Logged:  len(ws.seen.touched),
		Dist:    slices.Clone(ws.dist),
		Pending: ws.pending,
	}
}

// Equal reports whether two states are bit-identical.
func (a WorkspaceState) Equal(b WorkspaceState) bool {
	return slices.Equal(a.Seen, b.Seen) && slices.Equal(a.Settled, b.Settled) && a.Logged == b.Logged && slices.Equal(a.Dist, b.Dist) && a.Pending == b.Pending
}

// ListCap is how many vertices each of an engine's two level lists
// holds over n vertices.
func ListCap(n int) int { return listCap(n) }
