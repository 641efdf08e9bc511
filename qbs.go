// Package qbs is a Go implementation of Query-by-Sketch (QbS), the
// shortest-path-graph query engine of
//
//	Ye Wang, Qing Wang, Henning Koehler, Yu Lin.
//	"Query-by-Sketch: Scaling Shortest Path Graph Queries on Very Large
//	Networks." SIGMOD 2021.
//
// A shortest path graph SPG(u, v) is the subgraph containing exactly all
// shortest paths between u and v. QbS answers such queries with three
// phases: an offline labelling built from a small set of landmarks, a
// per-query sketch computed from the labelling, and a sketch-guided
// bidirectional search on the landmark-sparsified graph.
//
// # Quick start
//
//	g := qbs.NewBuilder(5)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(0, 3)
//	g.AddEdge(3, 2)
//	g.AddEdge(2, 4)
//	graph := g.MustBuild()
//
//	index, err := qbs.BuildIndex(graph, qbs.Options{NumLandmarks: 2})
//	if err != nil { ... }
//	spg := index.Query(0, 4)        // all shortest 0–4 paths
//	fmt.Println(spg.Dist, spg.Edges())
//
// Index queries are safe for concurrent use; the index itself is
// immutable after BuildIndex.
package qbs

import (
	"context"
	"errors"
	"fmt"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
	"qbs/internal/store"
)

// Re-exported graph types. The library operates on immutable unweighted
// graphs in CSR form with dense int32 vertex ids. A graph is undirected
// or directed, and every index reads which off the graph: over a
// directed one, queries answer SPG(u → v), the union of all shortest
// directed paths, with oriented arcs (the paper's §2 extension).
type (
	// V is a vertex identifier in [0, NumVertices).
	V = graph.V
	// Edge is an undirected edge, or the arc U→W in a directed answer.
	Edge = graph.Edge
	// Arc is a directed edge From → To.
	Arc = graph.Arc
	// Graph is an immutable graph, undirected or directed.
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// SPG is a shortest path graph: the answer to a query.
	SPG = graph.SPG
)

// InfDist marks an infinite distance (disconnected pair).
const InfDist = graph.InfDist

// NewBuilder creates an undirected graph builder over n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewDirectedBuilder creates a directed graph builder over n vertices:
// AddEdge(u, w) records the arc u→w.
func NewDirectedBuilder(n int) *Builder { return graph.NewDirectedBuilder(n) }

// FromEdges builds an undirected graph from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// LoadEdgeListFile reads a whitespace-separated edge list (SNAP/KONECT
// style, '#'/'%' comments): symmetrised into an undirected graph, or
// with directed set read as arcs "u w" = u→w. It returns the graph and
// the original ids of the densified vertices.
func LoadEdgeListFile(path string, directed bool) (*Graph, []int64, error) {
	return graph.ReadEdgeListFile(path, directed)
}

// Strategy selects how landmarks are chosen.
type Strategy string

const (
	// StrategyDegree picks the highest-degree vertices (paper default;
	// in+out degree over a directed graph).
	StrategyDegree Strategy = "degree"
	// StrategyRandom picks uniform random vertices.
	StrategyRandom Strategy = "random"
	// StrategyCoverage greedily maximises 2-hop neighbourhood coverage
	// (undirected graphs only).
	StrategyCoverage Strategy = "coverage"
	// StrategyBetweenness ranks vertices by sampled shortest-path
	// betweenness (Brandes on a source sample; undirected graphs only).
	StrategyBetweenness Strategy = "betweenness"
)

func (s Strategy) fn() core.LandmarkStrategy {
	switch s {
	case StrategyRandom:
		return core.Random
	case StrategyCoverage:
		return core.ByCoverage
	case StrategyBetweenness:
		return core.ByApproxBetweenness
	default:
		return core.ByDegree
	}
}

// Options configures BuildIndex.
type Options struct {
	// NumLandmarks is |R| (default 20, the paper's setting).
	NumLandmarks int
	// Strategy selects landmarks (default StrategyDegree).
	Strategy Strategy
	// Landmarks overrides selection with an explicit set.
	Landmarks []V
	// Parallelism bounds labelling workers (0 = GOMAXPROCS; 1 =
	// sequential, the paper's QbS vs QbS-P distinction).
	Parallelism int
	// Seed feeds randomized strategies.
	Seed int64
}

// IndexStats reports construction cost and size accounting.
type IndexStats = core.BuildStats

// QueryStats reports per-query internals (distances, bound, coverage
// classification, traversal counters).
type QueryStats = core.QueryStats

// Sketch is the per-query summary structure (Definition 4.5).
type Sketch = core.Sketch

// coreReader is the one read path under both index kinds (see
// core.Reader): Query, QueryInto, QueryIntoStats, QueryWithStats,
// Distance, DistanceStats, Sketch and QueryBatch of Index and
// DynamicIndex are its methods. The alias keeps the embedded field
// unexported.
type coreReader = core.Reader

// Pair is one query pair for QueryBatch.
type Pair = core.Pair

// Index is an immutable QbS index over a graph of either orientation.
// All methods are safe for concurrent use. To persist an undirected
// index, build it with CreateStore: the data directory holds the index
// together with its graph, and OpenStore with ReadOnly serves it back. A
// directed one persists with CreateDiStore.
type Index struct {
	*coreReader // resolves to core, always
	core        *core.Index
}

func newIndex(cix *core.Index) *Index {
	return &Index{core.NewReader(func() *core.Index { return cix }), cix}
}

// BuildIndex constructs a QbS index: landmark selection, the labelling
// scheme of Algorithm 2 (parallel across landmarks), meta-graph APSP and
// the landmark-pair shortest path graphs Δ. Over a directed graph each
// landmark keeps a labelling from it and one to it, and queries answer
// SPG(u → v); StrategyCoverage and StrategyBetweenness are refused there.
func BuildIndex(g *Graph, opts Options) (*Index, error) {
	if g.Directed() && (opts.Strategy == StrategyCoverage || opts.Strategy == StrategyBetweenness) {
		return nil, fmt.Errorf("qbs: landmark strategy %q ranks an undirected graph; use degree or random on a directed one", opts.Strategy)
	}
	cix, err := core.Build(g, core.Options{
		NumLandmarks: opts.NumLandmarks,
		Strategy:     opts.Strategy.fn(),
		Landmarks:    opts.Landmarks,
		Parallelism:  opts.Parallelism,
		Seed:         opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return newIndex(cix), nil
}

// MustBuildIndex is BuildIndex that panics on error.
func MustBuildIndex(g *Graph, opts Options) *Index {
	ix, err := BuildIndex(g, opts)
	if err != nil {
		panic(err)
	}
	return ix
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *Graph { return ix.core.Graph() }

// Landmarks returns the landmark vertices in rank order.
func (ix *Index) Landmarks() []V { return ix.core.Landmarks() }

// IsLandmark reports whether v is a landmark.
func (ix *Index) IsLandmark(v V) bool { return ix.core.IsLandmark(v) }

// Stats returns construction statistics.
func (ix *Index) Stats() IndexStats { return ix.core.Stats() }

// SizeLabelsBytes is the paper's size(L) accounting: |R| bytes/vertex,
// twice that over a directed graph (two labellings).
func (ix *Index) SizeLabelsBytes() int64 { return ix.core.SizeLabelsBytes() }

// SizeDeltaBytes is the paper's size(Δ): 8 bytes per precomputed
// landmark-pair shortest-path edge.
func (ix *Index) SizeDeltaBytes() int64 { return ix.core.SizeDeltaBytes() }

// Coverage classification constants for QueryStats.Coverage (Figure 8).
const (
	CoverageNone    = core.CoverageNone
	CoverageSome    = core.CoverageSome
	CoverageAll     = core.CoverageAll
	CoverageTrivial = core.CoverageTrivial
)

// ErrDiameterTooLarge is returned when a graph (or a graph update) would
// push some landmark distance beyond the 254-hop label representation
// limit.
var ErrDiameterTooLarge = core.ErrDiameterTooLarge

// DynamicOptions configures BuildDynamicIndex.
type DynamicOptions struct {
	// Index carries the landmark selection settings (NumLandmarks,
	// Strategy, Landmarks, Seed) plus Parallelism, which sets the
	// traverse pool width for the initial build and budget-blown column
	// re-BFSes (incremental repairs and compaction folds run no sweep).
	Index Options
	// RepairBudget caps the affected-vertex set of a deletion repair
	// before falling back to a full single-landmark re-BFS (0 = auto).
	RepairBudget int
	// CompactFraction sets the overlay-drift fraction that triggers a
	// compaction (0 = default 0.25, negative = disabled). See
	// DynamicIndex.Compact.
	CompactFraction float64
}

// DynamicStats reports dynamic-index maintenance counters.
type DynamicStats = dynamic.Stats

// DynamicIndex is a QbS index over a mutable graph: AddEdge and
// RemoveEdge repair the landmark labelling incrementally instead of
// rebuilding, and publish a new immutable snapshot per update. Queries
// are lock-free — they resolve the snapshot current at call time and
// never block on writers — so the read hot path matches the immutable
// Index. Writers are serialised internally; all methods are safe for
// concurrent use.
//
// The vertex set is fixed at construction; only edges change. Updates
// that would make some vertex sit more than 254 hops from a landmark are
// rejected with ErrDiameterTooLarge (the labelling stores one distance
// byte per landmark), leaving the index unchanged.
type DynamicIndex struct {
	*coreReader // d's: every query resolves the snapshot current at call time
	d           *dynamic.Index
	st          *store.Store // non-nil when the index is backed by a durable store
}

func newDynamicIndex(d *dynamic.Index, st *store.Store) *DynamicIndex {
	return &DynamicIndex{d.Reader, d, st}
}

// BuildDynamicIndex constructs a live-mutable QbS index over the current
// edges of the undirected graph g (a directed one is refused).
// Construction costs the same as BuildIndex; subsequent updates cost
// orders of magnitude less than a rebuild.
func BuildDynamicIndex(g *Graph, opts DynamicOptions) (*DynamicIndex, error) {
	d, err := dynamic.New(g, selectLandmarks(g, opts.Index), dynamic.Options{
		RepairBudget:    opts.RepairBudget,
		CompactFraction: opts.CompactFraction,
		Parallelism:     opts.Index.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return newDynamicIndex(d, nil), nil
}

// selectLandmarks resolves the landmark set from Options (an explicit
// set, or the configured strategy over the clamped count).
func selectLandmarks(g *Graph, opts Options) []V {
	if opts.Landmarks != nil {
		return opts.Landmarks
	}
	k := core.ClampLandmarks(opts.NumLandmarks, g.NumVertices())
	return opts.Strategy.fn()(g, k, opts.Seed)
}

// UpdateResult reports the outcome of one edge update: whether the
// graph changed, plus the epoch and edge count the write published
// (captured atomically with the write, so concurrent writers cannot
// skew them).
type UpdateResult = dynamic.Result

// AddEdge inserts the undirected edge {u, v} and incrementally repairs
// the index. It reports whether the graph changed (false when the edge
// already exists).
func (di *DynamicIndex) AddEdge(u, v V) (bool, error) { return di.d.AddEdge(u, v) }

// ApplyEdge inserts (insert=true) or removes the undirected edge {u, v}
// and returns the published epoch and edge count along with whether the
// graph changed — for callers that echo snapshot coordinates back to
// clients.
func (di *DynamicIndex) ApplyEdge(u, v V, insert bool) (UpdateResult, error) {
	return di.d.ApplyEdge(u, v, insert)
}

// ApplyEdgeCtx is ApplyEdge wired into the request's trace: when ctx
// carries a span buffer (obs.NewContext), the WAL append and any
// budget-blown column re-BFSes are recorded as child spans of the
// request. Behaviour is otherwise identical to ApplyEdge.
func (di *DynamicIndex) ApplyEdgeCtx(ctx context.Context, u, v V, insert bool) (UpdateResult, error) {
	return di.d.ApplyEdgeTraced(u, v, insert, obs.FromContext(ctx))
}

// RemoveEdge deletes the undirected edge {u, v} and incrementally
// repairs the index. It reports whether the graph changed (false when
// the edge does not exist).
func (di *DynamicIndex) RemoveEdge(u, v V) (bool, error) { return di.d.RemoveEdge(u, v) }

// Epoch returns the current snapshot number. It advances by one per
// applied update (and per compaction), so clients can detect staleness.
func (di *DynamicIndex) Epoch() uint64 { return di.d.Epoch() }

// EpochEdges returns the current epoch and edge count as one consistent
// pair (resolved from a single snapshot).
func (di *DynamicIndex) EpochEdges() (uint64, int) { return di.d.EpochEdges() }

// NumVertices returns |V| (fixed at construction).
func (di *DynamicIndex) NumVertices() int { return di.d.NumVertices() }

// NumEdges returns the current undirected edge count.
func (di *DynamicIndex) NumEdges() int { return di.d.NumEdges() }

// HasEdge reports whether {u, v} exists in the current snapshot.
func (di *DynamicIndex) HasEdge(u, v V) bool { return di.d.HasEdge(u, v) }

// Landmarks returns the landmark set, fixed for the index's lifetime.
func (di *DynamicIndex) Landmarks() []V { return di.d.Landmarks() }

// DynamicStats returns maintenance counters (repairs, fallbacks,
// compactions, overlay pressure).
func (di *DynamicIndex) DynamicStats() DynamicStats { return di.d.Stats() }

// SizeLabelsBytes is the paper's size(L) accounting for the current
// snapshot.
func (di *DynamicIndex) SizeLabelsBytes() int64 { return di.d.CurrentIndex().SizeLabelsBytes() }

// SizeDeltaBytes is the paper's size(Δ) accounting for the current
// snapshot.
func (di *DynamicIndex) SizeDeltaBytes() int64 { return di.d.CurrentIndex().SizeDeltaBytes() }

// Compact folds the overlay of per-vertex adjacency overrides into a
// fresh CSR base, resetting overlay drift, and publishes the next epoch.
// The labels, σ and Δ are a function of the graph and the landmarks, so
// they carry over unchanged: the fold costs O(|V| + |E|) and no BFS.
// Compaction also happens automatically, inside the write that takes the
// overlay past DynamicOptions.CompactFraction of vertices, after that
// write is published.
func (di *DynamicIndex) Compact() error { return di.d.Compact() }

// StoreOptions configures the durable store behind CreateStore and
// OpenStore.
type StoreOptions struct {
	// Index carries the landmark selection settings used by CreateStore
	// (NumLandmarks, Strategy, Landmarks, Seed); OpenStore ignores it —
	// the landmark set is part of the persisted snapshot.
	Index Options
	// SyncEvery batches write-ahead-log fsyncs: the log is synced after
	// this many updates (and always at checkpoint and Close). <= 1 syncs
	// every update — full durability, the default; larger values trade
	// the last few updates on power loss for write throughput. (A plain
	// process crash loses nothing either way: the OS still holds the
	// written log tail.)
	SyncEvery int
	// ReadOnly opens the store without attaching the log: queries only,
	// no Checkpoint, and the data directory is left untouched.
	ReadOnly bool
	// MMap maps the snapshot read-only instead of reading it into memory
	// — the fastest open path; the mapping lives until process exit.
	MMap bool
}

func (o StoreOptions) storeOptions() store.Options {
	return store.Options{
		Dynamic:   dynamic.Options{Parallelism: o.Index.Parallelism},
		SyncEvery: o.SyncEvery,
		ReadOnly:  o.ReadOnly,
		MMap:      o.MMap,
	}
}

// CreateStore builds a dynamic index over the undirected graph g
// (costing one BuildIndex; a directed g is refused) and initialises dir
// as its durable home: the freshly built state is
// written as a snapshot and every subsequent update is logged to a
// write-ahead log before it is acknowledged, so the index survives any
// crash. dir must not already contain a store.
func CreateStore(dir string, g *Graph, opts StoreOptions) (*DynamicIndex, error) {
	so := opts.storeOptions()
	d, err := dynamic.New(g, selectLandmarks(g, opts.Index), so.Dynamic)
	if err != nil {
		return nil, err
	}
	st, err := store.Create(dir, d, so)
	if err != nil {
		return nil, err
	}
	return newDynamicIndex(d, st), nil
}

// OpenStore recovers the index persisted in dir: the newest valid
// snapshot is loaded without recomputation (labels, distances, the
// graph and Δ are adopted zero-copy from the file arena) and any logged
// updates beyond it are replayed through the incremental repair path.
// The recovered index is bit-identical to the pre-crash one — including
// its epoch — and, unless opts.ReadOnly, continues logging new updates.
// Opening is typically orders of magnitude faster than rebuilding.
func OpenStore(dir string, opts StoreOptions) (*DynamicIndex, error) {
	st, err := store.Open(dir, opts.storeOptions())
	if err != nil {
		return nil, err
	}
	return newDynamicIndex(st.Index(), st), nil
}

// StoreExists reports whether dir already contains a durable store.
func StoreExists(dir string) bool { return store.Exists(dir) }

// DiStoreOptions configures CreateDiStore and OpenDiStore.
type DiStoreOptions struct {
	// Index carries the construction settings used by CreateDiStore;
	// OpenDiStore ignores it — the landmark set is part of the persisted
	// snapshot.
	Index Options
	// MMap maps the snapshot read-only instead of reading it into memory
	// — the fastest open path; the mapping lives until process exit.
	MMap bool
}

// CreateDiStore builds an index over the directed graph g (costing one
// BuildIndex; an undirected g is refused) and persists it into dir as a
// single checksummed snapshot (format v5: both CSRs, both labellings, σ
// and Δ). The directed index is immutable, so there is no write-ahead
// log — the snapshot is the whole store. dir must not already contain
// one.
func CreateDiStore(dir string, g *Graph, opts DiStoreOptions) (*Index, error) {
	if !g.Directed() {
		return nil, errors.New("qbs: CreateDiStore persists a directed graph; an undirected one persists with CreateStore")
	}
	ix, err := BuildIndex(g, opts.Index)
	if err != nil {
		return nil, err
	}
	if err := store.CreateDi(dir, g, ix.core.State()); err != nil {
		return nil, err
	}
	return ix, nil
}

// OpenDiStore recovers the directed index persisted in dir without
// recomputation: both CSRs, both label matrices, σ and Δ are adopted
// zero-copy from the validated file arena, and only the O(|R|³) meta
// state is rebuilt. Opening is typically orders of magnitude faster
// than rebuilding.
func OpenDiStore(dir string, opts DiStoreOptions) (*Index, error) {
	cix, _, err := store.OpenDi(dir, opts.MMap)
	if err != nil {
		return nil, err
	}
	return newIndex(cix), nil
}

// DiStoreExists reports whether dir already contains a directed store.
func DiStoreExists(dir string) bool { return store.DiExists(dir) }

// Durable reports whether the index is backed by a durable store (built
// by CreateStore/OpenStore rather than BuildDynamicIndex).
func (di *DynamicIndex) Durable() bool { return di.st != nil }

// Checkpoint persists the current state as a new snapshot, points the
// store at it and prunes write-ahead-log segments the snapshot covers.
// Writers are not blocked: updates landing during the snapshot write
// simply stay in the log. It returns the epoch persisted, and an error
// on a non-durable or read-only index.
func (di *DynamicIndex) Checkpoint() (uint64, error) {
	if di.st == nil {
		return 0, errNotDurable
	}
	return di.st.Checkpoint()
}

// Close flushes and detaches the durable store. The index remains
// usable in memory; further updates are no longer logged. Close on a
// non-durable index is a no-op.
func (di *DynamicIndex) Close() error {
	if di.st == nil {
		return nil
	}
	return di.st.Close()
}

var errNotDurable = errors.New("qbs: index has no durable store (use CreateStore/OpenStore)")

// Store exposes the durable store backing the index (nil when the index
// was built with BuildDynamicIndex). It is the replication seam: the
// primary side of internal/replica serves the store's newest snapshot
// and write-ahead-log tail to read replicas. The store package is
// internal, so only this module's packages can act on the result.
func (di *DynamicIndex) Store() *store.Store { return di.st }

// AdoptDynamic wraps an internally restored dynamic index in the public
// serving surface — the read-replica shape: internal/replica bootstraps
// an index from a shipped snapshot, keeps it fresh through the replay
// seam, and serves it through a DynamicIndex with no durable store
// attached. The dynamic package is internal, so only this module's
// packages can construct the argument.
func AdoptDynamic(d *dynamic.Index) *DynamicIndex { return newDynamicIndex(d, nil) }

// BiBFS answers SPG(u, v) — SPG(u → v) over a directed graph — by plain
// bidirectional BFS over the full graph: the paper's search-based
// baseline, requiring no index. For repeated queries prefer an Index;
// for one-off queries BiBFS avoids construction cost entirely.
func BiBFS(g *Graph, u, v V) *SPG { return bfs.BiBFS(g, u, v) }

// OracleSPG computes SPG(u, v) — SPG(u → v) over a directed graph — by
// two full BFS sweeps: the simple reference implementation (slow,
// allocation-heavy; used for testing and verification).
func OracleSPG(g *Graph, u, v V) *SPG {
	if g.Directed() {
		return bfs.OracleDiSPG(g, u, v)
	}
	return bfs.OracleSPG(g, u, v)
}
