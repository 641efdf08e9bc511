package dynamic

import (
	"errors"

	"qbs/internal/core"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// Incremental repair of one labelling column (one landmark-rooted QL/QN
// BFS layering, Algorithm 2) after a single edge update. The columns are
// built by core (state, dynamic.go); what is here changes them in place
// of rebuilding them, and falls back to core's sweep for one landmark
// (rebuildColumn) when that is the cheaper way.
//
// Each column carries two arrays: dist, the plain BFS distance from the
// landmark to every vertex, and lab, the QbS label — dist(v) when some
// shortest landmark–v path avoids all other landmarks, NoEntry
// otherwise. The pair is enough to repair the column locally:
//
//   - dist is a standard dynamic-SSSP problem. Insertions can only
//     decrease distances (decrease-only BFS from the improved endpoint);
//     deletions invalidate exactly the vertices whose every depth-(d−1)
//     parent is invalidated (affected-vertex detection, then a bounded
//     re-BFS of the affected set seeded from its unaffected boundary).
//
//   - lab ("membership") is a monotone fixpoint over the shortest-path
//     DAG: a non-landmark v is labelled iff some parent is the landmark
//     itself or a labelled non-landmark. Membership is recomputed for the
//     perturbed region in increasing-distance order, so every vertex sees
//     final parent states; a changed vertex pushes its DAG children,
//     cascading exactly as far as the perturbation reaches.
//
// The same fixpoint maintains the meta-graph row of the column's
// landmark: another landmark r' has a meta-edge (σ = dist(r')) iff some
// parent of r' is labelled, which is recomputed whenever r' is touched.

// errBudget aborts a deletion repair whose affected set outgrew
// Options.RepairBudget; the caller falls back to a full column re-BFS.
var errBudget = errors.New("dynamic: repair budget exceeded")

// labelChange records one rewritten label entry (consumed by Δ
// maintenance).
type labelChange struct {
	v        graph.V
	rank     int
	old, new uint8
}

// repairer carries the reusable workspaces for column repair. It is
// owned by the writer (one mutation at a time, under the writer lock).
type repairer struct {
	sh     *core.Shell
	R      int
	budget int

	// per-update state, set by begin and repairColumn: the column under
	// repair is one landmark's two arrays (state.dist[r], state.lab[r]),
	// private copies while an update repairs them.
	g     *Overlay
	dist  []int32
	lab   []uint8
	rank  int
	sigma []uint8 // working copy of the merged σ matrix for this update

	queue []graph.V

	// membership fixpoint: buckets by distance level, dedup stamps
	buckets [][]graph.V
	inQ     []uint32
	inQGen  uint32

	// deletion repair scratch
	aff       []uint32
	affGen    uint32
	affList   []graph.V
	fin       []uint32
	finGen    uint32
	tent      []int32
	cur, next []graph.V

	// full column rebuild scratch: the engine core's sweep runs on and
	// the buffers it fills for the diff.
	eng     *traverse.MultiBFS
	newDist []int32
	newLab  []uint8
	sigRow  []uint8

	// Δ repair's label walk, sized by the first list an update walks
	walk core.LabelWalk

	// outputs accumulated across the columns of one update
	labelChanges []labelChange
	sigmaChanged bool
}

func newRepairer(sh *core.Shell, budget, parallelism int) *repairer {
	n := sh.NumVertices()
	eng := traverse.NewMultiBFS(n)
	eng.Parallelism = parallelism
	return &repairer{
		sh:      sh,
		R:       sh.NumLandmarks(),
		budget:  budget,
		buckets: make([][]graph.V, int(core.MaxLabelDist)+1),
		inQ:     make([]uint32, n),
		aff:     make([]uint32, n),
		fin:     make([]uint32, n),
		tent:    make([]int32, n),
		eng:     eng,
		newDist: make([]int32, n),
		newLab:  make([]uint8, n),
		sigRow:  make([]uint8, sh.NumLandmarks()),
	}
}

// begin starts a new update: g is the post-update overlay, sigma the
// private working copy of the merged σ matrix.
func (rp *repairer) begin(g *Overlay, sigma []uint8) {
	rp.g = g
	rp.sigma = sigma
	rp.labelChanges = rp.labelChanges[:0]
	rp.sigmaChanged = false
}

// repairColumn applies the update {u, w} to the (already cloned) column
// dist, lab of the given rank. Deletion repairs that blow the budget
// fall back to a full column re-BFS. The only error is
// core.ErrDiameterTooLarge.
func (rp *repairer) repairColumn(dist []int32, lab []uint8, rank int, u, w graph.V, insert bool) (rebuilt bool, err error) {
	rp.dist, rp.lab, rp.rank = dist, lab, rank
	if insert {
		err = rp.insertRepair(u, w)
	} else {
		err = rp.deleteRepair(u, w)
	}
	if err == errBudget {
		return true, rp.rebuildColumn()
	}
	return false, err
}

// ---------------------------------------------------------------------
// Insertion: decrease-only distance repair + membership fixpoint.

func (rp *repairer) insertRepair(u, w graph.V) error {
	du, dw := rp.dist[u], rp.dist[w]
	if du > dw {
		u, w = w, u
		du, dw = dw, du
	}
	if du == graph.InfDist || dw == du {
		return nil // same level (or both unreachable): no DAG change
	}
	rp.inQGen++
	if dw == du+1 {
		// No distance change; w gained the parent u.
		rp.seed(u)
		rp.seed(w)
		rp.runFixpoint()
		return nil
	}
	// Distances decrease, cascading from w.
	if du+1 > core.MaxLabelDist {
		return core.ErrDiameterTooLarge
	}
	q := append(rp.queue[:0], w)
	rp.dist[w] = du + 1
	for head := 0; head < len(q); head++ {
		x := q[head]
		nd := rp.dist[x] + 1
		for _, y := range rp.g.Neighbors(x) {
			if rp.dist[y] > nd {
				if nd > core.MaxLabelDist {
					rp.queue = q
					return core.ErrDiameterTooLarge
				}
				rp.dist[y] = nd
				q = append(q, y)
			}
		}
	}
	rp.queue = q
	// Membership seeds: the endpoints, every vertex whose distance
	// changed, and its whole neighbourhood (old parents/children lost or
	// gained the vertex as a DAG neighbour).
	rp.seed(u)
	rp.seed(w)
	for _, x := range q {
		rp.seed(x)
		for _, y := range rp.g.Neighbors(x) {
			rp.seed(y)
		}
	}
	rp.runFixpoint()
	return nil
}

// ---------------------------------------------------------------------
// Deletion: affected-vertex detection, bounded re-BFS, membership.

func (rp *repairer) deleteRepair(u, w graph.V) error {
	du, dw := rp.dist[u], rp.dist[w]
	if du == dw {
		return nil // the edge joined a level (or the unreachable region)
	}
	if du > dw {
		u, w = w, u
		du, dw = dw, du
	}
	// The edge existed, so dw = du+1: w may have lost its only parent.
	rp.inQGen++
	orphan := true
	for _, p := range rp.g.Neighbors(w) {
		if rp.dist[p] == du {
			orphan = false
			break
		}
	}
	if !orphan {
		rp.seed(u)
		rp.seed(w)
		rp.runFixpoint()
		return nil
	}

	// Affected detection, level-synchronous from w: a vertex one level
	// deeper is affected iff all its parents are affected. Processing a
	// whole level before the next keeps the parent test exact.
	rp.affGen++
	rp.aff[w] = rp.affGen
	affected := append(rp.affList[:0], w)
	cur := append(rp.cur[:0], w)
	lvl := dw
	for len(cur) > 0 {
		next := rp.next[:0]
		for _, x := range cur {
			for _, y := range rp.g.Neighbors(x) {
				if rp.dist[y] != lvl+1 || rp.aff[y] == rp.affGen {
					continue
				}
				orphaned := true
				for _, p := range rp.g.Neighbors(y) {
					if rp.dist[p] == lvl && rp.aff[p] != rp.affGen {
						orphaned = false
						break
					}
				}
				if orphaned {
					rp.aff[y] = rp.affGen
					next = append(next, y)
					affected = append(affected, y)
				}
			}
		}
		rp.cur, rp.next = next, cur
		cur = next
		lvl++
		if len(affected) > rp.budget {
			rp.affList = affected
			return errBudget
		}
	}
	rp.affList = affected

	// Re-BFS of the affected set from its unaffected boundary: tentative
	// distances come from unaffected neighbours (whose distances are
	// final), then settle in increasing order through a bucket queue.
	rp.finGen++
	for _, x := range affected {
		t := graph.InfDist
		for _, p := range rp.g.Neighbors(x) {
			if rp.aff[p] != rp.affGen && rp.dist[p] != graph.InfDist && rp.dist[p]+1 < t {
				t = rp.dist[p] + 1
			}
		}
		rp.tent[x] = t
		if t <= core.MaxLabelDist {
			rp.buckets[t] = append(rp.buckets[t], x)
		}
	}
	for d := int32(0); d <= core.MaxLabelDist; d++ {
		for i := 0; i < len(rp.buckets[d]); i++ {
			x := rp.buckets[d][i]
			if rp.fin[x] == rp.finGen || rp.tent[x] != d {
				continue
			}
			rp.fin[x] = rp.finGen
			rp.dist[x] = d
			for _, y := range rp.g.Neighbors(x) {
				if rp.aff[y] == rp.affGen && rp.fin[y] != rp.finGen && d+1 < rp.tent[y] {
					rp.tent[y] = d + 1
					if d+1 <= core.MaxLabelDist {
						rp.buckets[d+1] = append(rp.buckets[d+1], y)
					}
				}
			}
		}
		rp.buckets[d] = rp.buckets[d][:0]
	}
	for _, x := range affected {
		if rp.fin[x] != rp.finGen {
			if rp.tent[x] != graph.InfDist {
				return core.ErrDiameterTooLarge
			}
			rp.dist[x] = graph.InfDist
		}
	}

	// Membership: endpoints, the affected set, and its neighbourhood.
	rp.seed(u)
	rp.seed(w)
	for _, x := range affected {
		rp.seed(x)
		for _, y := range rp.g.Neighbors(x) {
			rp.seed(y)
		}
	}
	rp.runFixpoint()
	return nil
}

// ---------------------------------------------------------------------
// Membership fixpoint.

// seed queues v for membership recomputation at its (final) distance
// level. Unreachable vertices are resolved immediately: no label, no
// meta-edge.
func (rp *repairer) seed(v graph.V) {
	if rp.inQ[v] == rp.inQGen {
		return
	}
	rp.inQ[v] = rp.inQGen
	d := rp.dist[v]
	if d == graph.InfDist {
		if ri := rp.sh.Rank(v); ri >= 0 {
			if ri != rp.rank {
				rp.recordSigma(ri, core.NoEntry)
			}
			return
		}
		if old := rp.lab[v]; old != core.NoEntry {
			rp.lab[v] = core.NoEntry
			rp.labelChanges = append(rp.labelChanges, labelChange{v, rp.rank, old, core.NoEntry})
		}
		return
	}
	rp.buckets[d] = append(rp.buckets[d], v)
}

// runFixpoint drains the level buckets in increasing distance order.
// Recomputing a vertex at level d only reads level d−1, which is final
// by then; a change pushes the vertex's level-(d+1) neighbours.
func (rp *repairer) runFixpoint() {
	for d := int32(0); d <= core.MaxLabelDist; d++ {
		for i := 0; i < len(rp.buckets[d]); i++ {
			rp.recompute(rp.buckets[d][i])
		}
		rp.buckets[d] = rp.buckets[d][:0]
	}
}

// goodPred reports whether parent p extends an avoiding shortest path:
// the column's own landmark, or a labelled non-landmark.
func (rp *repairer) goodPred(p graph.V) bool {
	if ri := rp.sh.Rank(p); ri >= 0 {
		return ri == rp.rank
	}
	return rp.lab[p] != core.NoEntry
}

func (rp *repairer) recompute(v graph.V) {
	d := rp.dist[v]
	ri := rp.sh.Rank(v)
	if ri == rp.rank {
		return // the root itself carries no label
	}
	good := false
	want := d - 1
	for _, p := range rp.g.Neighbors(v) {
		if rp.dist[p] == want && rp.goodPred(p) {
			good = true
			break
		}
	}
	nv := core.NoEntry
	if good {
		nv = uint8(d)
	}
	if ri >= 0 {
		rp.recordSigma(ri, nv)
		return // landmarks absorb: children never see them as good parents
	}
	if old := rp.lab[v]; old != nv {
		rp.lab[v] = nv
		rp.labelChanges = append(rp.labelChanges, labelChange{v, rp.rank, old, nv})
		for _, y := range rp.g.Neighbors(v) {
			if rp.dist[y] == d+1 && rp.inQ[y] != rp.inQGen {
				rp.inQ[y] = rp.inQGen
				rp.buckets[d+1] = append(rp.buckets[d+1], y)
			}
		}
	}
}

// recordSigma updates σ(rank, other) in the working matrix (both
// triangle entries; the symmetric column computes the same ground truth).
func (rp *repairer) recordSigma(other int, nv uint8) {
	at := rp.rank*rp.R + other
	if rp.sigma[at] != nv {
		rp.sigma[at] = nv
		rp.sigma[other*rp.R+rp.rank] = nv
		rp.sigmaChanged = true
	}
}

// ---------------------------------------------------------------------
// Full column rebuild: core's labelling sweep (the QL/QN BFS of
// Algorithm 2 on the direction-optimizing bit-parallel engine) run for
// this one landmark over the overlay, then the diff against the column's
// previous state recorded. Used as the budget fallback for expensive
// deletions.

func (rp *repairer) rebuildColumn() error {
	rank := rp.rank
	if err := rp.sh.SweepColumn(rp.eng, rp.g, rank, rp.newLab, rp.newDist, rp.sigRow); err != nil {
		return err
	}
	for v, nl := range rp.newLab {
		if old := rp.lab[v]; old != nl {
			rp.labelChanges = append(rp.labelChanges, labelChange{graph.V(v), rank, old, nl})
		}
	}
	copy(rp.dist, rp.newDist)
	copy(rp.lab, rp.newLab)
	for i, s := range rp.sigRow {
		if i != rank {
			rp.recordSigma(i, s)
		}
	}
	return nil
}
