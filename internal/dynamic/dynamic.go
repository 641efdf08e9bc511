package dynamic

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qbs/internal/core"
	"qbs/internal/graph"
	"qbs/internal/obs"
	"qbs/internal/traverse"
)

// Options tunes the dynamic index.
type Options struct {
	// RepairBudget caps the affected-vertex set of a deletion repair;
	// past it the column is repaired by a full re-BFS instead (which is
	// cheaper than chasing a huge invalidated region vertex by vertex).
	// 0 picks max(64, |V|/8).
	RepairBudget int
	// CompactFraction triggers an asynchronous compaction rebuild —
	// materialise the overlay into a fresh CSR base and relabel from
	// scratch — once more than this fraction of vertices carry adjacency
	// overrides. The rebuild runs off the write path; updates applied
	// meanwhile are replayed onto the rebuilt state before it is
	// published. 0 picks 0.25; negative disables auto-compaction.
	//
	// Compaction also bounds per-write cost: each update copies the
	// overlay's override bookkeeping (O(overridden vertices)), so with
	// auto-compaction disabled callers should invoke Compact themselves
	// once writes slow down.
	CompactFraction float64
	// Parallelism is the traverse pool width for the heavy BFS sweeps —
	// the initial build, compaction rebuilds and budget-blown full
	// column re-BFSes. 0 means GOMAXPROCS, 1 is sequential. Labels, σ
	// and Δ are bit-identical at every setting; incremental repairs are
	// unaffected (their affected sets are far below the pool threshold).
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

// state is the full incrementally maintained index state. All parts are
// immutable once published; updates copy-on-write only what they touch.
type state struct {
	overlay *Overlay
	cols    []*column
	sigma   []uint8
	ms      *core.MetaState
	delta   [][]graph.Edge
}

// snapshot is a published epoch: the state plus its assembled queryable
// index. Readers resolve one snapshot pointer and work against it
// without any locking; superseded snapshots are reclaimed by the
// garbage collector once the last reader drops them.
type snapshot struct {
	state
	index *core.Index
	epoch uint64
}

type update struct {
	u, w   graph.V
	insert bool
}

// Index is a QbS index over a mutable graph. Queries are lock-free and
// answer against the snapshot current at call time; AddEdge/RemoveEdge
// serialise on an internal mutex, repair the labelling incrementally and
// publish a new snapshot with an atomic pointer swap.
type Index struct {
	n, R      int
	landmarks []graph.V
	landIdx   []int16
	budget    int
	par       int // traverse pool width for full sweeps (resolved, >= 1)
	compactAt int // overridden-vertex threshold; 0 disables

	cur atomic.Pointer[snapshot]

	// pool holds searchers shared across snapshots: a searcher taken for
	// a query is rebound to the current snapshot's index, so workspaces
	// survive snapshot turnover instead of being reallocated per update.
	pool sync.Pool

	mu         sync.Mutex // serialises writers and guards the fields below
	rp         *repairer
	stats      Stats
	rebuilding bool
	pending    []update
	compactWG  sync.WaitGroup
	logger     UpdateLogger // durability hook; nil when not durable
}

// searcher draws a pooled searcher bound to the given snapshot.
//
//qbs:allow zeroalloc pool refill and epoch rebind are the sanctioned cold path; steady-state serving reuses an already-bound searcher
func (d *Index) searcher(s *snapshot) *core.Searcher {
	if sr, ok := d.pool.Get().(*core.Searcher); ok && sr.Rebind(s.index) {
		return sr
	}
	return core.NewSearcher(s.index)
}

// New builds a dynamic index over g with the given landmark set. The
// initial construction does the same work as a static build (one QL/QN
// BFS per landmark plus Δ recovery).
func New(g *graph.Graph, landmarks []graph.V, opts Options) (*Index, error) {
	d, err := newShell(g.NumVertices(), landmarks, opts)
	if err != nil {
		return nil, err
	}
	st, err := d.buildState(NewOverlay(g), d.rp)
	if err != nil {
		return nil, err
	}
	snap, err := d.newSnapshot(st, 0)
	if err != nil {
		return nil, err
	}
	//qbs:allow loggedpublish bootstrap publish at epoch 0; no logger is attached yet
	d.cur.Store(snap)
	return d, nil
}

// newShell validates the landmark set and options and prepares an Index
// without any published state (shared by New and Restore).
func newShell(n int, landmarks []graph.V, opts Options) (*Index, error) {
	if len(landmarks) > 254 {
		return nil, fmt.Errorf("dynamic: %d landmarks exceed the 254 maximum", len(landmarks))
	}
	landIdx := make([]int16, n)
	for i := range landIdx {
		landIdx[i] = -1
	}
	for i, r := range landmarks {
		if r < 0 || int(r) >= n {
			return nil, fmt.Errorf("dynamic: landmark %d out of range", r)
		}
		if landIdx[r] >= 0 {
			return nil, fmt.Errorf("dynamic: duplicate landmark %d", r)
		}
		landIdx[r] = int16(i)
	}
	budget := opts.RepairBudget
	if budget <= 0 {
		budget = n / 8
		if budget < 64 {
			budget = 64
		}
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
		compactAt = int(f * float64(n))
		// Floor: on tiny graphs a rebuild costs as little as a repair, so
		// compaction churn (and its extra epochs) buys nothing.
		if compactAt < 32 {
			compactAt = 32
		}
	}

	d := &Index{
		n:         n,
		R:         len(landmarks),
		landmarks: landmarks,
		landIdx:   landIdx,
		budget:    budget,
		par:       par,
		compactAt: compactAt,
		rp:        newRepairer(n, landmarks, landIdx, budget, par),
	}
	return d, nil
}

// buildState constructs the full state for an overlay from scratch,
// sweeping the bit-parallel engine over batches of up to 64 landmark
// columns at a time. Used by New and by compaction.
func (d *Index) buildState(ov *Overlay, rp *repairer) (state, error) {
	R := d.R
	sigma := make([]uint8, R*R)
	for i := range sigma {
		sigma[i] = core.NoEntry
	}
	cols := make([]*column, R)
	for r := 0; r < R; r++ {
		cols[r] = newColumn(d.n)
	}
	// With a parallel engine the settle callback runs from pool workers.
	// Per-vertex column writes are disjoint (each vertex settles exactly
	// once per batch) but the symmetric σ writes can collide when two
	// landmarks settle each other's columns in the same level; σ events
	// are rare, so a mutex there costs nothing.
	par := rp.eng.Parallelism > 1
	var sigMu sync.Mutex
	for base := 0; base < R; base += traverse.MaxSources {
		end := min(base+traverse.MaxSources, R)
		roots := d.landmarks[base:end]
		bcols := cols[base:end]
		err := rp.eng.Run(ov, nil, d.landIdx, roots, core.MaxLabelDist,
			func(v graph.V, depth int32, newL, newN uint64) {
				for w := newL | newN; w != 0; w &= w - 1 {
					bcols[bits.TrailingZeros64(w)].dist[v] = depth
				}
				if newL == 0 {
					return
				}
				d8 := uint8(depth)
				if rj := d.landIdx[v]; rj >= 0 {
					if par {
						sigMu.Lock()
					}
					for w := newL; w != 0; w &= w - 1 {
						a, b := base+bits.TrailingZeros64(w), int(rj)
						sigma[a*R+b] = d8
						sigma[b*R+a] = d8
					}
					if par {
						sigMu.Unlock()
					}
				} else {
					for w := newL; w != 0; w &= w - 1 {
						bcols[bits.TrailingZeros64(w)].lab[v] = d8
					}
				}
			})
		if err != nil {
			return state{}, core.ErrDiameterTooLarge
		}
		for i, r := range roots {
			bcols[i].dist[r] = 0
		}
	}
	ms := core.NewMetaState(d.R, sigma)
	delta := make([][]graph.Edge, ms.NumEdges())
	for k := range delta {
		a, b, wt := ms.Edge(k)
		delta[k] = computeDelta(ov, d.landmarks, cols, a, b, wt)
	}
	return state{overlay: ov, cols: cols, sigma: sigma, ms: ms, delta: delta}, nil
}

func (d *Index) newSnapshot(st state, epoch uint64) (*snapshot, error) {
	labels := make([][]uint8, d.R)
	for i, c := range st.cols {
		labels[i] = c.lab
	}
	ix, err := core.AssembleDynamic(st.overlay, d.landmarks, labels, st.ms, st.delta)
	if err != nil {
		return nil, err
	}
	return &snapshot{state: st, index: ix, epoch: epoch}, nil
}

// commitLocked publishes a prepared snapshot. It cannot fail — every
// fallible step happens in newSnapshot beforehand — which is what lets
// writers log to the WAL between preparation and publication without
// ever leaving a logged epoch unpublished.
//
//qbs:publish
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
	if u < 0 || int(u) >= d.n || w < 0 || int(w) >= d.n {
		return Result{}, fmt.Errorf("dynamic: edge {%d,%d} out of range [0,%d)", u, w, d.n)
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
	applyStart := time.Now()
	defer func() {
		if insert {
			mApplyInsertNs.Observe(time.Since(applyStart))
		} else {
			mApplyDeleteNs.Observe(time.Since(applyStart))
		}
	}()
	st, counts, err := d.applyLocked(d.rp, s.state, u, w, insert, tb)
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
	if insert {
		d.stats.Inserts++
	} else {
		d.stats.Deletes++
	}
	d.stats.ColumnsRepaired += counts.repaired
	d.stats.ColumnsRebuilt += counts.rebuilt
	d.stats.ColumnsSkipped += counts.skipped
	d.stats.LabelsRewritten += counts.labels
	d.stats.DeltaRecomputes += counts.deltas
	d.stats.MetaRebuilds += counts.metaRebuilds
	if d.rebuilding {
		d.pending = append(d.pending, update{u, w, insert})
	} else {
		d.maybeCompactLocked()
	}
	pub := d.cur.Load()
	return Result{Applied: true, Epoch: pub.epoch, Edges: pub.overlay.NumEdges()}, nil
}

// applyCounts are the maintenance counters of one applied update. They
// are returned rather than added to d.stats directly so compaction
// replay (which re-applies already-counted updates) can discard them.
type applyCounts struct {
	repaired, rebuilt, skipped   uint64
	labels, deltas, metaRebuilds uint64
}

// applyLocked runs one update against st and returns the successor
// state, touching only copies of the parts that change. st itself is
// never mutated, so the caller's snapshot stays valid on error. tb, when
// non-nil, receives a child span for every column whose repair blew the
// budget and fell back to a full re-BFS — the dominant cost of a bad
// delete, and otherwise invisible in a request trace.
func (d *Index) applyLocked(rp *repairer, st state, u, w graph.V, insert bool, tb *obs.TraceBuf) (state, applyCounts, error) {
	var counts applyCounts
	var ov *Overlay
	if insert {
		ov = st.overlay.WithEdge(u, w)
	} else {
		ov = st.overlay.WithoutEdge(u, w)
	}
	sigma := append([]uint8(nil), st.sigma...)
	rp.begin(ov, sigma)

	cols := make([]*column, d.R)
	copy(cols, st.cols)
	for r := 0; r < d.R; r++ {
		c := st.cols[r]
		if c.dist[u] == c.dist[w] {
			// The edge joins a BFS level (or the unreachable region) of
			// this landmark: neither distances nor the shortest-path DAG
			// change, so the column is untouched and stays shared.
			counts.skipped++
			continue
		}
		cc := c.clone()
		cols[r] = cc
		var colStart time.Time
		if tb != nil {
			colStart = time.Now()
		}
		rebuilt, err := rp.repairColumn(cc, r, u, w, insert)
		if err != nil {
			return state{}, counts, err
		}
		if rebuilt {
			counts.rebuilt++
			evColumnRebfs.Emit(obs.Int("landmark", int64(r)))
			if tb != nil {
				sp := tb.AddSpan("dynamic.column_rebfs", colStart, time.Since(colStart))
				sp.SetInt("landmark", int64(r))
			}
		} else {
			counts.repaired++
		}
	}
	counts.labels = uint64(len(rp.labelChanges))

	oldLab := func(v graph.V, rank int) uint8 { return st.cols[rank].lab[v] }
	dirty := dirtyDeltas(cols, sigma, d.R, d.landIdx, rp.labelChanges, u, w, oldLab)

	var ms *core.MetaState
	var delta [][]graph.Edge
	if rp.sigmaChanged {
		counts.metaRebuilds++
		ms = core.NewMetaState(d.R, sigma)
		delta = make([][]graph.Edge, ms.NumEdges())
		for k := range delta {
			a, b, wt := ms.Edge(k)
			if _, bad := dirty[a<<8|b]; !bad {
				if oldID := st.ms.EdgeID(a, b); oldID >= 0 {
					if _, _, oldWt := st.ms.Edge(int(oldID)); oldWt == wt {
						delta[k] = st.delta[oldID]
						continue
					}
				}
			}
			delta[k] = computeDelta(ov, d.landmarks, cols, a, b, wt)
			counts.deltas++
		}
	} else {
		ms = st.ms
		delta = st.delta
		if len(dirty) > 0 {
			delta = append([][]graph.Edge(nil), st.delta...)
			for key := range dirty {
				a, b := key>>8, key&0xff
				k := ms.EdgeID(a, b)
				if k < 0 {
					continue
				}
				_, _, wt := ms.Edge(int(k))
				delta[k] = computeDelta(ov, d.landmarks, cols, a, b, wt)
				counts.deltas++
			}
		}
	}
	return state{overlay: ov, cols: cols, sigma: sigma, ms: ms, delta: delta}, counts, nil
}

// maybeCompactLocked kicks off an asynchronous compaction rebuild when
// the overlay has drifted far enough from its CSR base.
func (d *Index) maybeCompactLocked() {
	if d.compactAt <= 0 || d.rebuilding {
		return
	}
	s := d.cur.Load()
	if s.overlay.Overridden() < d.compactAt {
		return
	}
	d.rebuilding = true
	d.pending = d.pending[:0]
	d.compactWG.Add(1)
	go d.compact(s)
}

// compact materialises the overlay into a fresh CSR base, relabels from
// scratch off the write path, then (under the writer lock) replays every
// update that arrived meanwhile and publishes the compacted state.
func (d *Index) compact(snap *snapshot) {
	defer d.compactWG.Done()
	start := time.Now()
	// Compactions run off any request path; they get their own root
	// trace so a write-lock stall can still be explained after the fact.
	ctb := obs.DefaultTracer.Begin("dynamic.compact", "", 0, false)
	ctb.Root().SetInt("from_epoch", int64(snap.epoch))
	evCompactStart.Emit(obs.Int("from_epoch", int64(snap.epoch)), obs.Int("overridden", int64(snap.overlay.Overridden())))
	defer func() {
		mCompactNs.Observe(time.Since(start))
		obs.DefaultTracer.Finish(ctb)
	}()
	base := snap.overlay.Materialize()
	rp := newRepairer(d.n, d.landmarks, d.landIdx, d.budget, d.par)
	st, err := d.buildState(NewOverlay(base), rp)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.rebuilding = false
	if err != nil {
		evCompactFailed.Emit(obs.Str("stage", "rebuild"), obs.Str("error", err.Error()))
		return // state unmaintainable only if it already was; keep serving
	}
	for _, up := range d.pending {
		// Replays traverse the exact update sequence already accepted, so
		// repair cannot fail; bail out conservatively if it ever does.
		// Maintenance counters are discarded: these updates were already
		// counted when applied live.
		st, _, err = d.applyLocked(rp, st, up.u, up.w, up.insert, nil)
		if err != nil {
			d.pending = d.pending[:0]
			evCompactFailed.Emit(obs.Str("stage", "replay"), obs.Str("error", err.Error()))
			return
		}
	}
	d.pending = d.pending[:0]
	snap, snapErr := d.newSnapshot(st, d.cur.Load().epoch+1)
	if snapErr != nil {
		evCompactFailed.Emit(obs.Str("stage", "snapshot"), obs.Str("error", snapErr.Error()))
		return
	}
	if d.logger != nil {
		// A compaction advances the epoch without an edge mutation; log it
		// so replayed epochs stay aligned with live ones. If the log is
		// unavailable, skip publishing — the pre-compaction state keeps
		// serving and drift will trigger another attempt.
		if err := d.logger.LogCompaction(snap.epoch); err != nil {
			evCompactFailed.Emit(obs.Str("stage", "log"), obs.Str("error", err.Error()))
			return
		}
	}
	d.commitLocked(snap)
	d.stats.Compactions++
	evCompactDone.Emit(obs.Int("epoch", int64(snap.epoch)), obs.Int("ms", time.Since(start).Milliseconds()))
}

// WaitCompaction blocks until any in-flight compaction has finished
// (used by tests and graceful shutdown).
func (d *Index) WaitCompaction() { d.compactWG.Wait() }

// Compact synchronously rebuilds the CSR base and labelling from the
// current graph.
func (d *Index) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.cur.Load()
	rp := newRepairer(d.n, d.landmarks, d.landIdx, d.budget, d.par)
	st, err := d.buildState(NewOverlay(s.overlay.Materialize()), rp)
	if err != nil {
		return err
	}
	snap, err := d.newSnapshot(st, s.epoch+1)
	if err != nil {
		return err
	}
	if d.logger != nil {
		if err := d.logger.LogCompaction(snap.epoch); err != nil {
			return fmt.Errorf("dynamic: compaction not logged: %w", err)
		}
	}
	d.commitLocked(snap)
	d.stats.Compactions++
	return nil
}

// ---------------------------------------------------------------------
// Read side. Every reader resolves the current snapshot once and works
// against it; writers never block readers.

// Query answers SPG(u, v) on the current snapshot.
func (d *Index) Query(u, v graph.V) *graph.SPG {
	sr := d.searcher(d.cur.Load())
	defer d.pool.Put(sr)
	return sr.Query(u, v)
}

// QueryInto answers SPG(u, v) on the current snapshot into a
// caller-owned result, resetting it first, and reports query internals;
// see core.Searcher.QueryInto.
func (d *Index) QueryInto(dst *graph.SPG, u, v graph.V) core.QueryStats {
	sr := d.searcher(d.cur.Load())
	defer d.pool.Put(sr)
	return sr.QueryInto(dst, u, v)
}

// Distance returns d_G(u, v) on the current snapshot.
func (d *Index) Distance(u, v graph.V) int32 {
	sr := d.searcher(d.cur.Load())
	defer d.pool.Put(sr)
	return sr.Distance(u, v)
}

// Sketch computes the query sketch on the current snapshot.
func (d *Index) Sketch(u, v graph.V) *core.Sketch {
	return d.cur.Load().index.Sketch(u, v)
}

// QueryBatch answers many queries concurrently against one consistent
// snapshot (all answers reflect the same epoch). parallelism 0 means
// GOMAXPROCS. A panicking query leaves its slot nil and the batch
// completes; see core.QueryBatchInto.
func (d *Index) QueryBatch(pairs [][2]graph.V, parallelism int) []*graph.SPG {
	out := make([]*graph.SPG, len(pairs))
	s := d.cur.Load()
	core.QueryBatchInto(out, parallelism,
		func(i int) (graph.V, graph.V) { return pairs[i][0], pairs[i][1] },
		func() *core.Searcher { return d.searcher(s) },
		func(sr *core.Searcher) { d.pool.Put(sr) })
	return out
}

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
func (d *Index) NumVertices() int { return d.n }

// NumEdges returns the current undirected edge count.
func (d *Index) NumEdges() int { return d.cur.Load().overlay.NumEdges() }

// HasEdge reports whether {u, w} currently exists.
func (d *Index) HasEdge(u, w graph.V) bool {
	if u < 0 || int(u) >= d.n || w < 0 || int(w) >= d.n {
		return false
	}
	return d.cur.Load().overlay.HasEdge(u, w)
}

// Landmarks returns the (fixed) landmark set in rank order.
func (d *Index) Landmarks() []graph.V { return d.landmarks }

// CurrentIndex returns the assembled index of the current snapshot (for
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
