package dynamic

import (
	"fmt"

	"qbs/internal/core"
	"qbs/internal/graph"
)

// Persistence hooks for the durable store (internal/store). The dynamic
// index itself stays storage-agnostic: it exposes (1) Record, the one
// logged epoch advance, and an UpdateLogger that receives each one
// *before* its epoch is published, (2) a frozen PersistentState view of
// one snapshot for serialization, and (3) Restore and Replay, the entry
// points that reassemble an index from persisted state and drive logged
// records back through the ordinary repair path — on recovery and on a
// replica alike.

// Record is one logged epoch advance: what the writer logs, recovery
// replays and replication ships. Op is OpInsert or OpDelete for the edge
// {U, W}, or OpCompact for the epoch a compaction published (U = W = 0).
type Record struct {
	Epoch uint64
	U, W  graph.V
	Op    uint8
}

// Record ops; they are also the write-ahead log's on-disk op codes.
const (
	OpInsert  = 1
	OpDelete  = 2
	OpCompact = 3
)

// UpdateLogger receives every epoch advance of a durable index before
// the epoch becomes visible to readers. Implementations append to a
// write-ahead log: when Log returns nil the record is considered
// committed, so a crash immediately after publication replays it.
// Returning an error rejects the advance (the index stays unchanged).
//
// Calls arrive serialised under the index's writer lock, in strictly
// increasing epoch order with no gaps.
type UpdateLogger interface {
	Log(rec Record) error
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
// the durable store serialises and restores. All slices alias
// copy-on-write snapshot state (immutable by construction) except Graph,
// which is materialised fresh from the overlay; none may be modified.
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
// recomputed. ps.Delta must align with the deterministic meta-edge order
// NewMetaState derives from ps.Sigma. The index publishes at ps.Epoch;
// callers then Replay any logged records beyond it.
func Restore(ps PersistentState, opts Options) (*Index, error) {
	sh, err := core.NewShell(ps.Graph.NumVertices(), ps.Landmarks)
	if err != nil {
		return nil, err
	}
	d := newIndex(sh, opts)
	n, R := sh.NumVertices(), sh.NumLandmarks()
	if len(ps.Dists) != R {
		return nil, fmt.Errorf("dynamic: restore with %d dist columns for %d landmarks", len(ps.Dists), R)
	}
	for r, col := range ps.Dists {
		if len(col) != n {
			return nil, fmt.Errorf("dynamic: restore dist column %d has %d entries for %d vertices", r, len(col), n)
		}
	}
	if len(ps.Sigma) != R*R {
		return nil, fmt.Errorf("dynamic: restore with %d sigma entries, want %d", len(ps.Sigma), R*R)
	}
	// The label columns and Δ are shape-checked where every epoch's are:
	// by the shell, when newSnapshot puts the index together.
	st := state{overlay: NewOverlay(ps.Graph), dist: ps.Dists, lab: ps.Labels, sigma: ps.Sigma, ms: core.NewMetaState(R, ps.Sigma), delta: ps.Delta}
	snap, err := d.newSnapshot(st, ps.Epoch)
	if err != nil {
		return nil, err
	}
	// The snapshot is already durable: there is nothing new to log.
	d.cur.Store(snap)
	d.stats.Epoch = ps.Epoch
	return d, nil
}

// Replay applies logged records in order through the same repair as a
// live update: recovery replays its log tail and a replica applies each
// shipped batch through it, so every tier reaches an epoch through the
// same states. Nothing is logged (the records are on the log already)
// and no compaction starts: the overlay folds at the logged OpCompact
// records, as the live index folded it, with labels, σ and Δ carried
// over. Replay is strict: each record must be the current epoch + 1, and
// an edge record must change the graph. A valid log holds only applied
// advances, so anything else is log/state divergence, reported and
// never skipped. On error the records before the offending one stay
// applied and published.
func (d *Index) Replay(recs []Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.NumVertices()
	for _, rec := range recs {
		s := d.cur.Load()
		if rec.Epoch != s.epoch+1 {
			return fmt.Errorf("dynamic: replay epoch %d does not follow current epoch %d", rec.Epoch, s.epoch)
		}
		if rec.Op == OpCompact {
			if err := d.compactLocked(nil); err != nil {
				return err
			}
			continue
		}
		u, w, insert := rec.U, rec.W, rec.Op == OpInsert
		if rec.Op != OpInsert && rec.Op != OpDelete || u < 0 || int(u) >= n || w < 0 || int(w) >= n || u == w {
			return fmt.Errorf("dynamic: replayed record %+v is no update of a graph on [0,%d)", rec, n)
		}
		if s.overlay.HasEdge(u, w) == insert {
			return fmt.Errorf("dynamic: replayed update {%d,%d} insert=%v is a no-op (log and snapshot diverged)", u, w, insert)
		}
		st, counts, err := d.applyLocked(s.state, u, w, insert, nil)
		if err != nil {
			return err
		}
		snap, err := d.newSnapshot(st, rec.Epoch)
		if err != nil {
			return err
		}
		d.commitLocked(snap)
		d.countLocked(insert, counts)
	}
	return nil
}
