package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Labelling construction (Algorithm 2 of the paper).
//
// The conceptual scheme is one BFS per landmark r maintaining two
// frontiers per level:
//
//   - QL — vertices reached by some shortest path from r that avoids all
//     other landmarks ("to be labelled"),
//   - QN — vertices whose every shortest path from r passes through
//     another landmark ("not to be labelled").
//
// At each level the QL frontier expands first: a newly discovered
// non-landmark joins QL and receives the label (r, depth); a newly
// discovered landmark v joins QN and contributes the meta-edge (r, v)
// with σ = depth. Vertices discovered only from QN join QN unlabelled.
// Processing QL before QN at each level is what makes membership match
// Definition 4.2 exactly: a vertex has an avoiding shortest path iff one
// of its depth-1 predecessors is in QL.
//
// The scheme is deterministic w.r.t. the landmark set (Lemma 5.2), so
// landmarks can be processed independently in any grouping. The build
// path exploits that with the bit-parallel traverse.MultiBFS engine: up
// to 64 landmark BFSes advance per graph sweep, one bit per landmark, so
// the paper's default |R| = 20 costs a single sweep instead of twenty.
// Batches beyond 64 landmarks run in parallel workers, each writing only
// its own columns and meta-edge list (QbS-P, §5.3).
//
// On a digraph each landmark has two such BFSes — over out-arcs for the
// labelling from it, over in-arcs for the labelling to it — so a batch
// costs two sweeps; an undirected graph needs one.
//
// The scalar per-landmark BFS below is retained as the reference
// implementation: labelling_test cross-checks the bit-parallel engine
// against it for bit-identical labels, σ entries and meta-edges, in
// both directions.

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

// batchBFS sweeps one batch of up to 64 landmarks (ranks
// [base, base+len(cols))) through the bit-parallel engine along push
// (pull is its reverse, deg its cached degrees), writing the batch's
// label columns and returning the meta-edges (root → landmark reached)
// plus the number of label entries written (each entry is written
// exactly once, so counting here replaces a full O(n·|R|) matrix scan).
//
// When the engine runs its intra-sweep worker pool the settle callback
// is invoked concurrently; label writes are naturally disjoint (each
// settle owns its vertex), so only the shared meta-edge list (a rare,
// landmark-only event) takes a mutex, and the per-settle entry count
// goes through an atomic.
func (ix *Index) batchBFS(eng *traverse.MultiBFS, base int, push, pull graph.Adjacency, deg []int32, cols [][]uint8) ([]metaEdge, int64, error) {
	roots := ix.landmarks[base : base+len(cols)]
	var metas []metaEdge
	var entries int64
	var entriesA atomic.Int64
	var mu sync.Mutex
	par := eng.Parallelism > 1
	err := eng.RunDirected(push, pull, deg, ix.landIdx, roots, MaxLabelDist,
		func(v graph.V, depth int32, newL, _ uint64) {
			if newL == 0 {
				return
			}
			if rj := ix.landIdx[v]; rj >= 0 {
				if par {
					mu.Lock()
				}
				for w := newL; w != 0; w &= w - 1 {
					metas = append(metas, metaEdge{a: base + bits.TrailingZeros64(w), b: int(rj), weight: depth})
				}
				if par {
					mu.Unlock()
				}
			} else {
				if par {
					entriesA.Add(int64(bits.OnesCount64(newL)))
				} else {
					entries += int64(bits.OnesCount64(newL))
				}
				d8 := uint8(depth)
				for w := newL; w != 0; w &= w - 1 {
					cols[bits.TrailingZeros64(w)][v] = d8
				}
			}
		})
	if err != nil {
		return nil, 0, ErrDiameterTooLarge
	}
	return metas, entries + entriesA.Load(), nil
}

// allocLabels allocates one label matrix of R columns over n vertices:
// one flat backing array, NoEntry-filled by doubling copies (memmove
// beats a byte loop ~8×), then sliced into columns.
func allocLabels(n, R int) [][]uint8 {
	labels := make([][]uint8, R)
	backing := make([]uint8, n*R)
	if len(backing) > 0 {
		backing[0] = NoEntry
		for filled := 1; filled < len(backing); filled *= 2 {
			copy(backing[filled:], backing[:filled])
		}
	}
	for i := range labels {
		labels[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return labels
}

// buildLabelling runs Algorithm 2 from every landmark in bit-parallel
// batches of 64: a sweep over the out-arcs fills labelFrom and discovers
// the meta-edges, a sweep over the in-arcs fills labelTo — one sweep and
// one matrix under both names when the graph is symmetric. Batches are
// distributed over outer workers and any worker budget left over (the
// common case: the paper's |R| = 20 is a single batch) is spent inside
// each sweep as engine pool workers; the per-batch meta-edges are merged
// at the end.
func (ix *Index) buildLabelling(parallelism int) error {
	n := ix.out.NumVertices()
	R := ix.numLand
	sym := ix.symmetric()
	ix.labelFrom = allocLabels(n, R)
	ix.labelTo = ix.labelFrom
	if !sym {
		ix.labelTo = allocLabels(n, R)
	}
	if R == 0 {
		ix.finishMeta(nil)
		return nil
	}

	batches := (R + traverse.MaxSources - 1) / traverse.MaxSources
	perBatch := make([][]metaEdge, batches)
	perBatchEntries := make([]int64, batches)

	runBatch := func(eng *traverse.MultiBFS, b int) error {
		base := b * traverse.MaxSources
		end := min(base+traverse.MaxSources, R)
		metas, entries, err := ix.batchBFS(eng, base, ix.out, ix.in, ix.degsOut, ix.labelFrom[base:end])
		if err == nil && !sym {
			// The in-arc sweep meets the same landmark pairs from the other
			// end; its meta-edges are the ones already collected.
			var back int64
			_, back, err = ix.batchBFS(eng, base, ix.in, ix.out, ix.degsIn, ix.labelTo[base:end])
			entries += back
		}
		perBatch[b] = metas
		perBatchEntries[b] = entries
		return err
	}

	outer := parallelism
	if outer > batches {
		outer = batches
	}
	inner := 1
	if outer > 0 {
		inner = parallelism / outer
	}
	if outer <= 1 {
		eng := traverse.NewMultiBFS(n)
		eng.Parallelism = inner
		for b := 0; b < batches; b++ {
			if err := runBatch(eng, b); err != nil {
				return err
			}
		}
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		work := make(chan int)
		for w := 0; w < outer; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng := traverse.NewMultiBFS(n)
				eng.Parallelism = inner
				for b := range work {
					if err := runBatch(eng, b); err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
					}
				}
			}()
		}
		for b := 0; b < batches; b++ {
			work <- b
		}
		close(work)
		wg.Wait()
		if firstErr != nil {
			return firstErr
		}
	}

	var all []metaEdge
	ix.build.LabelEntries = 0
	for b, metas := range perBatch {
		all = append(all, metas...)
		ix.build.LabelEntries += perBatchEntries[b]
	}
	ix.finishMeta(all)
	return nil
}

// countLabelEntries scans the label matrices for present entries (both
// of them when they differ).
func (ix *Index) countLabelEntries() int64 {
	matrices := [][][]uint8{ix.labelTo}
	if !ix.symmetric() {
		matrices = append(matrices, ix.labelFrom)
	}
	var entries int64
	for _, labels := range matrices {
		for _, col := range labels {
			for _, d := range col {
				if d != NoEntry {
					entries++
				}
			}
		}
	}
	return entries
}

// finishMeta builds the σ matrix from the discovered meta-edges and
// freezes the derived meta state (edge list, APSP, shortest-meta-path
// table). Every sweep finds root → landmark reached, once per pair, so
// an undirected graph fills σ symmetrically from its two ends.
func (ix *Index) finishMeta(all []metaEdge) {
	R := ix.numLand
	sigma := make([]uint8, R*R)
	for i := range sigma {
		sigma[i] = NoEntry
	}
	for _, e := range all {
		sigma[e.a*R+e.b] = uint8(e.weight)
	}
	ix.ms = newMetaState(R, sigma, ix.symmetric())
	ix.build.MetaEdges = len(ix.ms.meta)
}
