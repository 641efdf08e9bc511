package core

import (
	"testing"

	"qbs/internal/graph"
)

// bareIndex returns an index over (out, in) holding a validated landmark
// set and nothing built: what the reference fills in column by column.
func bareIndex(tb testing.TB, g *graph.Graph, out, in graph.Adjacency, landmarks []graph.V) *Index {
	tb.Helper()
	sh, err := NewShell(out.NumVertices(), landmarks)
	if err != nil {
		tb.Fatal(err)
	}
	return &Index{Shell: *sh, g: g, out: out, in: in}
}

// The scalar per-landmark QL/QN BFS of Algorithm 2, one landmark and one
// direction at a time: the reference the bit-parallel sweep (batchBFS)
// is held to, bit for bit.

// labelWorkspace holds per-worker BFS state (scalar reference path).
type labelWorkspace struct {
	depth   []int32 // -1 = unvisited
	curL    []graph.V
	curN    []graph.V
	nextL   []graph.V
	nextN   []graph.V
	visited []graph.V // for O(touched) reset between landmarks
}

func newLabelWorkspace(n int) *labelWorkspace {
	ws := &labelWorkspace{depth: make([]int32, n)}
	for i := range ws.depth {
		ws.depth[i] = -1
	}
	return ws
}

func (ws *labelWorkspace) reset() {
	for _, v := range ws.visited {
		ws.depth[v] = -1
	}
	ws.visited = ws.visited[:0]
	ws.curL, ws.curN = ws.curL[:0], ws.curN[:0]
	ws.nextL, ws.nextN = ws.nextL[:0], ws.nextN[:0]
}

// landmarkBFS runs the scalar avoiding BFS from landmark rank ri over adj
// — the out-arcs for the labelling from the landmark, the in-arcs for
// the labelling to it — writing column col and returning the meta-edges
// (ri, other) discovered, with overflow reported via the bool.
func (ix *Index) landmarkBFS(ri int, adj graph.Adjacency, col []uint8, ws *labelWorkspace) ([]metaEdge, bool) {
	root := ix.landmarks[ri]
	ws.reset()
	ws.depth[root] = 0
	ws.visited = append(ws.visited, root)
	ws.curL = append(ws.curL, root)
	var metas []metaEdge

	depth := int32(0)
	for len(ws.curL) > 0 || len(ws.curN) > 0 {
		next := depth + 1
		if next > MaxLabelDist {
			return nil, false
		}
		ws.nextL, ws.nextN = ws.nextL[:0], ws.nextN[:0]
		// Labelled frontier first: its discoveries are on avoiding paths.
		for _, u := range ws.curL {
			for _, v := range adj.Neighbors(u) {
				if ws.depth[v] >= 0 {
					continue
				}
				ws.depth[v] = next
				ws.visited = append(ws.visited, v)
				if rj := ix.landIdx[v]; rj >= 0 {
					ws.nextN = append(ws.nextN, v)
					metas = append(metas, metaEdge{a: ri, b: int(rj), weight: next})
				} else {
					ws.nextL = append(ws.nextL, v)
					col[v] = uint8(next)
				}
			}
		}
		// Non-labelled frontier: discoveries inherit "through a landmark".
		for _, u := range ws.curN {
			for _, v := range adj.Neighbors(u) {
				if ws.depth[v] >= 0 {
					continue
				}
				ws.depth[v] = next
				ws.visited = append(ws.visited, v)
				ws.nextN = append(ws.nextN, v)
			}
		}
		ws.curL, ws.nextL = ws.nextL, ws.curL
		ws.curN, ws.nextN = ws.nextN, ws.curN
		depth = next
	}
	return metas, true
}
