package core

import (
	"math/bits"
	"sync"

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
// The scalar per-landmark BFS is kept as the reference implementation in
// reference_test.go: labelling_test cross-checks the bit-parallel engine
// against it for bit-identical labels, σ entries and meta-edges, in
// both directions.
//
// The sweep below is the only one: Build, the dynamic index's full
// builds (Shell.BuildMaintained) and its single-column fallback
// (Shell.SweepColumn) all settle through batchBFS.

// batchBFS sweeps one batch of up to 64 landmarks (ranks
// [base, base+len(cols))) through the bit-parallel engine along push
// (pull is its reverse), writing the batch's
// label columns and returning the meta-edges (root → landmark reached).
// With dist non-nil it also writes every settled vertex's plain BFS
// depth into the batch's distance columns — the bits that arrived
// through another landmark included, which the labelling ignores; the
// caller presets unreachable and root entries.
//
// When the engine runs a bottom-up level on more than one worker the
// settle callback is invoked concurrently; label writes are naturally
// disjoint (each settle owns its vertex), so only the shared meta-edge
// list (a rare, landmark-only event) takes a mutex. Nothing is counted
// per settle: a shared counter there would put one cache line under
// contention for a whole bottom-up level.
func (sh *Shell) batchBFS(eng *traverse.MultiBFS, base int, push, pull graph.Adjacency, cols [][]uint8, dist [][]int32) ([]metaEdge, error) {
	roots := sh.landmarks[base : base+len(cols)]
	var metas []metaEdge
	var mu sync.Mutex
	par := eng.Parallelism > 1
	err := eng.RunDirected(push, pull, nil, sh.landIdx, roots, MaxLabelDist,
		func(v graph.V, depth int32, newL, newN uint64) {
			if dist != nil {
				for w := newL | newN; w != 0; w &= w - 1 {
					dist[bits.TrailingZeros64(w)][v] = depth
				}
			}
			if newL == 0 {
				return
			}
			if rj := sh.landIdx[v]; rj >= 0 {
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
				d8 := uint8(depth)
				for w := newL; w != 0; w &= w - 1 {
					cols[bits.TrailingZeros64(w)][v] = d8
				}
			}
		})
	if err != nil {
		return nil, ErrDiameterTooLarge
	}
	return metas, nil
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

// SweepColumn runs the labelling sweep for one landmark alone — what a
// maintained column falls back to when repairing it in place would cost
// more than redoing it — over the undirected adjacency a, overwriting
// lab and dist (one entry per vertex) and sigmaRow (one per rank:
// σ(rank, ·), NoEntry where there is no meta-edge).
func (sh *Shell) SweepColumn(eng *traverse.MultiBFS, a graph.Adjacency, rank int, lab []uint8, dist []int32, sigmaRow []uint8) error {
	for v := range lab {
		lab[v], dist[v] = NoEntry, graph.InfDist
	}
	dist[sh.landmarks[rank]] = 0
	for i := range sigmaRow {
		sigmaRow[i] = NoEntry
	}
	metas, err := sh.batchBFS(eng, rank, a, a, [][]uint8{lab}, [][]int32{dist})
	for _, e := range metas {
		sigmaRow[e.b] = uint8(e.weight)
	}
	return err
}

// buildLabelling runs Algorithm 2 from every landmark in bit-parallel
// batches of 64: a sweep over the out-arcs fills labelFrom and discovers
// the meta-edges, a sweep over the in-arcs fills labelTo — one sweep and
// one matrix under both names when the graph is symmetric (the only case
// that may ask for distance columns). Batches are
// distributed over outer workers and any worker budget left over (the
// common case: the paper's |R| = 20 is a single batch) is spent inside
// each sweep as the width of its bottom-up levels; the per-batch
// meta-edges are merged at the end.
func (ix *Index) buildLabelling(parallelism int, dist [][]int32) error {
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

	runBatch := func(eng *traverse.MultiBFS, b int) error {
		base := b * traverse.MaxSources
		end := min(base+traverse.MaxSources, R)
		var bdist [][]int32
		if dist != nil {
			bdist = dist[base:end]
		}
		metas, err := ix.batchBFS(eng, base, ix.out, ix.in, ix.labelFrom[base:end], bdist)
		if err == nil && !sym {
			// The in-arc sweep meets the same landmark pairs from the other
			// end; its meta-edges are the ones already collected.
			_, err = ix.batchBFS(eng, base, ix.in, ix.out, ix.labelTo[base:end], nil)
		}
		perBatch[b] = metas
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
	for _, metas := range perBatch {
		all = append(all, metas...)
	}
	ix.build.LabelEntries = ix.countLabelEntries()
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
