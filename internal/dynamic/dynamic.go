package dynamic

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qbs/internal/core"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// Options tunes the dynamic index.
type Options struct {
	// RepairBudget caps the affected-vertex set of a deletion repair;
	// past it the column is repaired by a full re-BFS instead (which is
	// cheaper than chasing a huge invalidated region vertex by vertex).
	// 0 picks max(64, |V|/8).
	RepairBudget int
	// CompactFraction triggers a compaction — the overlay folded into a
	// fresh CSR base, the labels, σ and Δ kept as they are — once more
	// than this fraction of vertices carry adjacency overrides. The fold
	// runs in the write that crosses the threshold, after that write is
	// published. 0 picks 0.25; negative disables auto-compaction.
	//
	// Compaction also bounds per-write cost: each update copies the
	// overlay's override bookkeeping (O(overridden vertices)), so with
	// auto-compaction disabled callers should invoke Compact themselves
	// once writes slow down.
	CompactFraction float64
	// Parallelism is the width of the bottom-up levels of the heavy BFS
	// sweeps — the initial build and budget-blown full column re-BFSes.
	// 0 means GOMAXPROCS, 1 is sequential. Labels, σ and Δ are
	// bit-identical at every setting; incremental repairs and compaction
	// folds run no sweep and stay sequential.
	Parallelism int
}

// Stats reports dynamic-index activity counters.
type Stats struct {
	Epoch           uint64 // snapshot number, one per applied update or compaction
	Inserts         uint64
	Deletes         uint64
	ColumnsRepaired uint64 // incremental column repairs
	ColumnsRebuilt  uint64 // budget-exceeded fallback re-BFSes
	ColumnsSkipped  uint64 // columns untouched by an update
	LabelsRewritten uint64 // individual label entries changed
	DeltaRecomputes uint64 // Δ lists recomputed
	MetaRebuilds    uint64 // σ changes forcing a meta-state rebuild
	Compactions     uint64
	Overridden      int // vertices with overlay-private adjacency
}

// state is everything the index maintains, one value per epoch. The one
// full build (epoch 0) is core's: fullBuild runs
// core.Shell.BuildMaintained over the overlay and takes the result over
// — labels from the one labelling sweep, σ and the meta state from its
// meta-edges, Δ from the label walk (core.Shell.FillDelta), and the
// plain BFS distance columns the same sweep writes for a maintained
// index. From then on applyLocked repairs those parts in place of
// rebuilding them (repair.go; a stale Δ list is the same walk again),
// and a compaction replaces only the overlay (compactLocked).
// All parts are immutable once published; an update copies only the
// columns and lists it writes and shares the rest with its predecessor.
type state struct {
	overlay *Overlay
	dist    [][]int32 // per landmark rank: BFS distance from the landmark; graph.InfDist unreachable
	lab     [][]uint8 // per landmark rank: QbS label — dist if an avoiding shortest path exists, else NoEntry
	sigma   []uint8
	ms      *core.MetaState
	delta   [][]graph.Edge
}

// snapshot is a published epoch: the state, and the static index over it
// — the index's one shell (landmarks and their reverse map, shared by
// every epoch) around this epoch's overlay, label columns, meta state
// and Δ. Readers resolve one snapshot pointer and work against it
// without any locking; superseded snapshots are reclaimed by the garbage
// collector once the last reader drops them.
type snapshot struct {
	state
	index *core.Index
	epoch uint64
}

// Index is a QbS index over a mutable graph: the static index plus a
// writer. Its read side is the embedded core.Reader — the one every
// index kind reads through — resolving to the index of the snapshot
// current at call time, lock-free; AddEdge/RemoveEdge serialise on an
// internal mutex, repair the labelling incrementally and publish a new
// snapshot with an atomic pointer swap.
type Index struct {
	*core.Reader

	shell     *core.Shell // the landmark set, validated once; every epoch's index is made from it
	par       int         // traverse pool width for full sweeps (resolved, >= 1)
	compactAt int         // overridden-vertex threshold; 0 disables

	cur atomic.Pointer[snapshot]

	mu     sync.Mutex // serialises writers and guards the fields below
	rp     *repairer
	stats  Stats
	logger UpdateLogger // durability hook; nil when not durable
}

// New builds a dynamic index over g with the given landmark set. The
// initial construction is a static build (one QL/QN sweep over the
// landmarks plus Δ recovery) that also keeps the distance columns.
func New(g *graph.Graph, landmarks []graph.V, opts Options) (*Index, error) {
	sh, err := core.NewShell(g.NumVertices(), landmarks)
	if err != nil {
		return nil, err
	}
	d := newIndex(sh, opts)
	st, err := d.fullBuild(NewOverlay(g))
	if err != nil {
		return nil, err
	}
	snap, err := d.newSnapshot(st, 0)
	if err != nil {
		return nil, err
	}
	// Bootstrap publish at epoch 0: no logger is attached yet.
	d.cur.Store(snap)
	return d, nil
}

// newIndex resolves the options and prepares an Index around a validated
// shell, without any published state (shared by New and Restore).
func newIndex(sh *core.Shell, opts Options) *Index {
	n := sh.NumVertices()
	budget := opts.RepairBudget
	if budget <= 0 {
		budget = max(64, n/8)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	compactAt := 0
	if opts.CompactFraction >= 0 {
		f := opts.CompactFraction
		if f == 0 {
			f = 0.25
		}
		// Floor: on tiny graphs the overlay copy every write pays is
		// already small, so compaction churn (and its extra epochs) buys
		// nothing.
		compactAt = max(32, int(f*float64(n)))
	}
	d := &Index{shell: sh, par: par, compactAt: compactAt, rp: newRepairer(sh, budget, par)}
	d.Reader = core.NewReader(func() *core.Index { return d.cur.Load().index })
	return d
}

// fullBuild constructs the full state for an overlay from scratch: it is
// core's build, over the overlay, with this index's landmarks. Only New
// uses it.
func (d *Index) fullBuild(ov *Overlay) (state, error) {
	ix, dist, err := d.shell.BuildMaintained(ov, d.par)
	if err != nil {
		return state{}, err
	}
	built := ix.State()
	return state{overlay: ov, dist: dist, lab: built.LabelTo, sigma: built.Sigma, ms: ix.Meta(), delta: built.Delta}, nil
}

// newSnapshot wraps a state in the index readers query: the shell around
// the state's parts, by reference. Nothing per vertex is allocated or
// checked, whatever the epoch.
func (d *Index) newSnapshot(st state, epoch uint64) (*snapshot, error) {
	ix, err := d.shell.Index(st.overlay, st.overlay, st.lab, st.lab, st.ms, st.delta)
	if err != nil {
		return nil, err
	}
	return &snapshot{state: st, index: ix, epoch: epoch}, nil
}

// commitLocked publishes a prepared snapshot. It cannot fail — every
// fallible step happens in newSnapshot beforehand — which is what lets
// writers log to the WAL between preparation and publication without
// ever leaving a logged epoch unpublished.
func (d *Index) commitLocked(snap *snapshot) {
	d.cur.Store(snap)
	d.stats.Epoch = snap.epoch
	d.stats.Overridden = snap.overlay.Overridden()
}

// Result reports the outcome of one edge update: whether the graph
// changed, and the epoch and edge count the write published (or found,
// for no-ops). Both are captured under the writer lock, so concurrent
// writers cannot skew a response's epoch past the snapshot containing
// this write.
type Result struct {
	Applied bool
	Epoch   uint64
	Edges   int
}

// AddEdge inserts the undirected edge {u, w}, repairing the index
// incrementally. It reports whether the graph changed (false when the
// edge already exists). The only error conditions are invalid endpoints
// and updates that would push a finite distance beyond the 254-hop label
// representation limit; rejected updates leave the index unchanged.
func (d *Index) AddEdge(u, w graph.V) (bool, error) {
	res, err := d.ApplyEdge(u, w, true)
	return res.Applied, err
}

// RemoveEdge deletes the undirected edge {u, w}; see AddEdge for the
// contract (false when the edge does not exist).
func (d *Index) RemoveEdge(u, w graph.V) (bool, error) {
	res, err := d.ApplyEdge(u, w, false)
	return res.Applied, err
}

// ApplyEdge is AddEdge/RemoveEdge with the published epoch and edge
// count in the result (for callers that echo them back to clients).
func (d *Index) ApplyEdge(u, w graph.V, insert bool) (Result, error) {
	return d.ApplyEdgeTraced(u, w, insert, nil)
}

// ApplyEdgeTraced is ApplyEdge with the caller's span buffer: the WAL
// append and any budget-blown column re-BFSes become child spans of the
// request, making the expensive parts of a write visible in its trace.
// tb may be nil (every recording call is nil-safe).
func (d *Index) ApplyEdgeTraced(u, w graph.V, insert bool, tb *obs.TraceBuf) (Result, error) {
	if n := d.NumVertices(); u < 0 || int(u) >= n || w < 0 || int(w) >= n {
		return Result{}, fmt.Errorf("dynamic: edge {%d,%d} out of range [0,%d)", u, w, n)
	}
	if u == w {
		return Result{}, fmt.Errorf("dynamic: self-loop {%d,%d} rejected", u, w)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.cur.Load()
	if s.overlay.HasEdge(u, w) == insert {
		// Idempotent no-op: already present / already absent.
		return Result{Applied: false, Epoch: s.epoch, Edges: s.overlay.NumEdges()}, nil
	}
	st, counts, err := d.applyLocked(s.state, u, w, insert, tb)
	if err != nil {
		return Result{}, err
	}
	snap, err := d.newSnapshot(st, s.epoch+1)
	if err != nil {
		return Result{}, err
	}
	// Durability: the update must be on the log before its epoch becomes
	// visible. A logging failure rejects the update outright — the caller
	// sees an error and the published state is unchanged, so the log never
	// trails the index it protects. The snapshot is prepared first so
	// nothing can fail between logging and publication: a logged epoch is
	// always published, keeping the log free of orphan records.
	if d.logger != nil {
		sp := tb.StartSpan("wal.append")
		sp.SetInt("epoch", int64(snap.epoch))
		err := d.logger.LogUpdate(snap.epoch, u, w, insert)
		if err != nil {
			sp.Fail()
		}
		sp.End()
		if err != nil {
			return Result{}, fmt.Errorf("dynamic: update not logged: %w", err)
		}
	}
	d.commitLocked(snap)
	d.countLocked(insert, counts)
	if d.compactAt > 0 && snap.overlay.Overridden() >= d.compactAt {
		// The write is published and its result stands: a fold the log
		// refuses is journaled, and the next write tries again.
		_ = d.compactLocked(d.logger)
	}
	return Result{Applied: true, Epoch: snap.epoch, Edges: snap.overlay.NumEdges()}, nil
}

// applyCounts are the maintenance counters of one applied update. They
// are returned rather than added to d.stats directly so an update the
// log refuses counts nothing.
type applyCounts struct {
	repaired, rebuilt, skipped   uint64
	labels, deltas, metaRebuilds uint64
}

// countLocked adds one published (or replayed) update to the counters.
func (d *Index) countLocked(insert bool, c applyCounts) {
	if insert {
		d.stats.Inserts++
	} else {
		d.stats.Deletes++
	}
	d.stats.ColumnsRepaired += c.repaired
	d.stats.ColumnsRebuilt += c.rebuilt
	d.stats.ColumnsSkipped += c.skipped
	d.stats.LabelsRewritten += c.labels
	d.stats.DeltaRecomputes += c.deltas
	d.stats.MetaRebuilds += c.metaRebuilds
}

// applyLocked runs one update against st and returns the successor
// state, touching only copies of the parts that change. st itself is
// never mutated, so the caller's snapshot stays valid on error. tb, when
// non-nil, receives a child span for every column whose repair blew the
// budget and fell back to a full re-BFS — the dominant cost of a bad
// delete, and otherwise invisible in a request trace.
func (d *Index) applyLocked(st state, u, w graph.V, insert bool, tb *obs.TraceBuf) (state, applyCounts, error) {
	var counts applyCounts
	rp, R := d.rp, d.shell.NumLandmarks()
	var ov *Overlay
	if insert {
		ov = st.overlay.WithEdge(u, w)
	} else {
		ov = st.overlay.WithoutEdge(u, w)
	}
	sigma := slices.Clone(st.sigma)
	rp.begin(ov, sigma)

	dist, lab := slices.Clone(st.dist), slices.Clone(st.lab)
	for r := 0; r < R; r++ {
		if st.dist[r][u] == st.dist[r][w] {
			// The edge joins a BFS level (or the unreachable region) of
			// this landmark: neither distances nor the shortest-path DAG
			// change, so the column is untouched and stays shared.
			counts.skipped++
			continue
		}
		dist[r], lab[r] = slices.Clone(st.dist[r]), slices.Clone(st.lab[r])
		var colStart time.Time
		if tb != nil {
			colStart = time.Now()
		}
		rebuilt, err := rp.repairColumn(dist[r], lab[r], r, u, w, insert)
		if err != nil {
			return state{}, counts, err
		}
		if rebuilt {
			counts.rebuilt++
			if tb != nil {
				sp := tb.AddSpan("dynamic.column_rebfs", colStart, time.Since(colStart))
				sp.SetInt("landmark", int64(r))
			}
		} else {
			counts.repaired++
		}
	}
	counts.labels = uint64(len(rp.labelChanges))

	dirty := dirtyDeltas(d.shell, lab, st.lab, sigma, rp.labelChanges, u, w)

	// Every Δ list left nil is walked afresh over the updated overlay: a
	// dirty one, and after a σ change one whose meta-edge is new or
	// changed weight. The rest are carried over by reference.
	ms, delta := st.ms, st.delta
	if rp.sigmaChanged {
		counts.metaRebuilds++
		ms = core.NewMetaState(R, sigma)
		delta = make([][]graph.Edge, ms.NumEdges())
		for k := range delta {
			a, b, wt := ms.Edge(k)
			if _, bad := dirty[a<<8|b]; bad {
				continue
			}
			if oldID := st.ms.EdgeID(a, b); oldID >= 0 {
				if _, _, oldWt := st.ms.Edge(int(oldID)); oldWt == wt {
					delta[k] = st.delta[oldID]
				}
			}
		}
	} else if len(dirty) > 0 {
		delta = slices.Clone(st.delta)
		for key := range dirty {
			if k := ms.EdgeID(key>>8, key&0xff); k >= 0 {
				delta[k] = nil
			}
		}
	}
	counts.deltas = uint64(d.shell.FillDelta(ov, lab, ms, delta, &rp.walk))
	return state{overlay: ov, dist: dist, lab: lab, sigma: sigma, ms: ms, delta: delta}, counts, nil
}

// compactLocked folds the current overlay into a fresh CSR base and
// publishes the result as the next epoch. Only the adjacency changes
// shape: the labels are a function of the graph and the landmark set
// (Lemma 5.2), the graph is the same, so the label and distance columns,
// σ, the meta state and Δ carry over by reference. The fold is logged to
// l first (nil when replaying a record already on the log) and is not
// published if l refuses it. Each fold is a dynamic.compact root trace;
// a failed one is marked errored, so tail sampling keeps it, and
// journaled as dynamic/compact_failed.
func (d *Index) compactLocked(l UpdateLogger) error {
	s := d.cur.Load()
	ctb := obs.DefaultTracer.Begin("dynamic.compact", "", 0, false)
	root := ctb.Root()
	root.SetInt("from_epoch", int64(s.epoch))
	root.SetInt("overridden", int64(s.overlay.Overridden()))
	defer obs.DefaultTracer.Finish(ctb)

	st := s.state
	st.overlay = NewOverlay(s.overlay.Materialize())
	snap, err := d.newSnapshot(st, s.epoch+1)
	if err == nil && l != nil {
		if err = l.LogCompaction(snap.epoch); err != nil {
			err = fmt.Errorf("dynamic: compaction not logged: %w", err)
		}
	}
	if err != nil {
		root.SetStr("stage", "publish")
		root.SetStr("error", err.Error())
		root.Fail()
		evCompactFailed.Emit(obs.Str("stage", "publish"), obs.Str("error", err.Error()))
		return err
	}
	d.commitLocked(snap)
	d.stats.Compactions++
	root.SetInt("epoch", int64(snap.epoch))
	return nil
}

// Compact folds the overlay into a fresh CSR base now, publishing the
// next epoch (see compactLocked).
func (d *Index) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked(d.logger)
}

// ---------------------------------------------------------------------
// Read side. Queries are the embedded core.Reader's; what follows reads
// the current snapshot's coordinates. Every reader resolves the current
// snapshot once and works against it; writers never block readers.

// Epoch returns the current snapshot number.
func (d *Index) Epoch() uint64 { return d.cur.Load().epoch }

// EpochEdges returns the current epoch and edge count as one consistent
// pair: both come from a single snapshot resolution, so the pair always
// describes a state that actually existed (unlike separate Epoch and
// NumEdges calls racing a writer).
func (d *Index) EpochEdges() (uint64, int) {
	s := d.cur.Load()
	return s.epoch, s.overlay.NumEdges()
}

// NumVertices returns |V| (fixed at construction).
func (d *Index) NumVertices() int { return d.shell.NumVertices() }

// NumEdges returns the current undirected edge count.
func (d *Index) NumEdges() int { return d.cur.Load().overlay.NumEdges() }

// HasEdge reports whether {u, w} currently exists.
func (d *Index) HasEdge(u, w graph.V) bool {
	if n := d.NumVertices(); u < 0 || int(u) >= n || w < 0 || int(w) >= n {
		return false
	}
	return d.cur.Load().overlay.HasEdge(u, w)
}

// Landmarks returns the (fixed) landmark set in rank order.
func (d *Index) Landmarks() []graph.V { return d.shell.Landmarks() }

// CurrentIndex returns the index of the current snapshot (for
// introspection and tests; the instance is immutable).
func (d *Index) CurrentIndex() *core.Index { return d.cur.Load().index }

// CurrentGraph returns the current snapshot's overlay graph view.
func (d *Index) CurrentGraph() *Overlay { return d.cur.Load().overlay }

// Stats returns a copy of the activity counters.
func (d *Index) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.Overridden = d.cur.Load().overlay.Overridden()
	return st
}
