package dynamic

import (
	"fmt"

	"qbs/internal/core"
	"qbs/internal/graph"
)

// Persistence hooks for the durable store (internal/store). The dynamic
// index itself stays storage-agnostic: it exposes (1) an UpdateLogger
// callback invoked with every epoch advance *before* the epoch is
// published, (2) a frozen PersistentState view of one snapshot for
// serialization, and (3) Restore/ReplayEdge/ReplayEpoch, the recovery
// entry points that reassemble an index from persisted state and drive
// logged updates back through the ordinary repair path.

// UpdateLogger receives every epoch advance of a durable index before
// the epoch becomes visible to readers. Implementations append to a
// write-ahead log: when LogUpdate returns nil the record is considered
// committed, so a crash immediately after publication replays it.
// Returning an error rejects the update (the index stays unchanged).
//
// Calls arrive serialised under the index's writer lock, in strictly
// increasing epoch order with no gaps.
type UpdateLogger interface {
	// LogUpdate records one applied edge mutation and the epoch it will
	// publish.
	LogUpdate(epoch uint64, u, w graph.V, insert bool) error
	// LogCompaction records an epoch advance with no edge mutation (a
	// compaction publish). Replay bumps the epoch without touching edges.
	LogCompaction(epoch uint64) error
}

// SetLogger attaches (or with nil detaches) the durability hook. It
// synchronises with in-flight writers: once SetLogger returns, no
// further calls reach the previous logger.
func (d *Index) SetLogger(l UpdateLogger) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logger = l
}

// PersistentState is a frozen view of one published snapshot — the unit
// the durable store serialises. All slices alias copy-on-write snapshot
// state (immutable by construction) except Graph, which is materialised
// fresh from the overlay; none may be modified.
type PersistentState struct {
	Epoch     uint64
	Graph     *graph.Graph // current adjacency, flattened to CSR
	Landmarks []graph.V
	Sigma     []uint8        // |R|×|R| meta-edge weights
	Dists     [][]int32      // per landmark rank: BFS distance column
	Labels    [][]uint8      // per landmark rank: QbS label column
	Delta     [][]graph.Edge // per meta-edge, in MetaState edge order
}

// Persistent captures the current snapshot for serialization. The
// capture is consistent even against concurrent writers: everything is
// resolved from a single snapshot pointer.
func (d *Index) Persistent() PersistentState {
	s := d.cur.Load()
	return PersistentState{
		Epoch:     s.epoch,
		Graph:     s.overlay.Materialize(),
		Landmarks: d.Landmarks(),
		Sigma:     s.sigma,
		Dists:     s.dist,
		Labels:    s.lab,
		Delta:     s.delta,
	}
}

// Restore reassembles a dynamic index from persisted state without any
// BFS work: the columns, σ and Δ are adopted by reference (they may be
// views into a read-only snapshot arena — the copy-on-write update path
// never writes into adopted state), and only the derived meta-state
// (APSP + meta-SPG tables, O(|R|³) independent of graph size) is
// recomputed. delta must align with the deterministic meta-edge order
// NewMetaState derives from sigma. The index publishes at the given
// epoch; callers then replay any logged updates beyond it.
func Restore(g *graph.Graph, landmarks []graph.V, dists [][]int32, labels [][]uint8, sigma []uint8, delta [][]graph.Edge, epoch uint64, opts Options) (*Index, error) {
	sh, err := core.NewShell(g.NumVertices(), landmarks)
	if err != nil {
		return nil, err
	}
	d := newIndex(sh, opts)
	n, R := sh.NumVertices(), sh.NumLandmarks()
	if len(dists) != R {
		return nil, fmt.Errorf("dynamic: restore with %d dist columns for %d landmarks", len(dists), R)
	}
	for r, col := range dists {
		if len(col) != n {
			return nil, fmt.Errorf("dynamic: restore dist column %d has %d entries for %d vertices", r, len(col), n)
		}
	}
	if len(sigma) != R*R {
		return nil, fmt.Errorf("dynamic: restore with %d sigma entries, want %d", len(sigma), R*R)
	}
	// The label columns and Δ are shape-checked where every epoch's are:
	// by the shell, when newSnapshot puts the index together.
	st := state{overlay: NewOverlay(g), dist: dists, lab: labels, sigma: sigma, ms: core.NewMetaState(R, sigma), delta: delta}
	snap, err := d.newSnapshot(st, epoch)
	if err != nil {
		return nil, err
	}
	// The snapshot is already durable: there is nothing new to log.
	d.cur.Store(snap)
	d.stats.Epoch = epoch
	return d, nil
}

// ReplayEdge re-applies one logged update during recovery. It runs the
// same incremental repair as a live update but skips logging (the record
// is already on disk) and compaction scheduling (epochs must track the
// log exactly while replaying). The record's epoch must be the immediate
// successor of the current one, and the mutation must actually change
// the graph — a valid log only contains applied updates, so either
// violation reports log/state divergence.
func (d *Index) ReplayEdge(u, w graph.V, insert bool, epoch uint64) error {
	if n := d.NumVertices(); u < 0 || int(u) >= n || w < 0 || int(w) >= n || u == w {
		return fmt.Errorf("dynamic: replayed edge {%d,%d} out of range [0,%d)", u, w, n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.cur.Load()
	if epoch != s.epoch+1 {
		return fmt.Errorf("dynamic: replay epoch %d does not follow current epoch %d", epoch, s.epoch)
	}
	if s.overlay.HasEdge(u, w) == insert {
		return fmt.Errorf("dynamic: replayed update {%d,%d} insert=%v is a no-op (log and snapshot diverged)", u, w, insert)
	}
	st, counts, err := d.applyLocked(s.state, u, w, insert, nil)
	if err != nil {
		return err
	}
	snap, err := d.newSnapshot(st, epoch)
	if err != nil {
		return err
	}
	d.commitLocked(snap)
	d.countLocked(insert, counts)
	return nil
}

// ReplayOp is one replicated log record, the unit ApplyStream consumes:
// either an edge mutation (Insert reports the direction) or, when
// Compact is set, a bare epoch advance published by a compaction.
type ReplayOp struct {
	Epoch   uint64
	U, W    graph.V
	Insert  bool
	Compact bool
}

// ApplyStream replays a batch of logged operations in order — the
// replica-side entry point for WAL shipping. Ops at or below the
// current epoch are skipped (the bootstrap snapshot or an earlier batch
// already covers them); the rest run through the same incremental
// repair as recovery replay, so a replica that consumes the primary's
// log converges to bit-identical labels, σ and Δ at every epoch. It
// returns how many ops applied; on error the stream stops at the
// offending op with everything before it applied and published.
func (d *Index) ApplyStream(ops []ReplayOp) (int, error) {
	applied := 0
	for _, op := range ops {
		if op.Epoch <= d.Epoch() {
			continue
		}
		var err error
		if op.Compact {
			err = d.ReplayEpoch(op.Epoch)
		} else {
			err = d.ReplayEdge(op.U, op.W, op.Insert, op.Epoch)
		}
		if err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// ReplayEpoch re-applies a logged compaction marker: the current state
// is republished unchanged at the given epoch. (Replay does not redo the
// compaction itself — a compaction rebuild produces bit-identical
// labels, σ and Δ by the repair-equals-rebuild invariant, so only the
// epoch number needs to advance.)
func (d *Index) ReplayEpoch(epoch uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.cur.Load()
	if epoch != s.epoch+1 {
		return fmt.Errorf("dynamic: replay epoch %d does not follow current epoch %d", epoch, s.epoch)
	}
	// The compaction marker is already on disk: there is nothing to log.
	d.cur.Store(&snapshot{state: s.state, index: s.index, epoch: epoch})
	d.stats.Epoch = epoch
	return nil
}
