package qbs

import (
	"sync"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/graph"
	"qbs/internal/store"
)

// Directed API: the paper's §2 extension to directed graphs, answering
// SPG(u → v) — the union of all shortest *directed* paths. It is the
// same engine as the undirected index (internal/core, "Directed
// graphs"), bound to a digraph's out- and in-arcs and filling a DiSPG,
// so it carries the same serving surface — Distance, zero-alloc
// QueryInto, panic-isolated QueryBatch, Sketch, Stats — plus snapshot
// persistence via CreateDiStore/OpenDiStore.

type (
	// Arc is a directed edge From → To.
	Arc = graph.Arc
	// DiGraph is an immutable directed graph (dual CSR).
	DiGraph = graph.DiGraph
	// DiBuilder accumulates arcs and produces a DiGraph.
	DiBuilder = graph.DiBuilder
	// DiSPG is a directed shortest path graph.
	DiSPG = graph.DiSPG
	// DiSketch is the directed per-query summary structure.
	DiSketch = core.Sketch
	// DiIndexStats reports directed construction cost and size accounting.
	DiIndexStats = core.BuildStats
	// DiQueryStats reports directed per-query internals.
	DiQueryStats = core.QueryStats
)

// NewDiBuilder creates a directed-graph builder over n vertices.
func NewDiBuilder(n int) *DiBuilder { return graph.NewDiBuilder(n) }

// DiFromArcs builds a digraph from an arc list.
func DiFromArcs(n int, arcs []Arc) (*DiGraph, error) { return graph.DiFromArcs(n, arcs) }

// AsDirected converts an undirected graph to a digraph with both arc
// directions.
func AsDirected(g *Graph) *DiGraph { return graph.AsDirected(g) }

// LoadDiEdgeListFile reads a whitespace-separated edge list as directed
// arcs ('#'/'%' comments, ids densified); unlike LoadEdgeListFile it
// does not symmetrise. It returns the digraph and the original ids of
// the densified vertices.
func LoadDiEdgeListFile(path string) (*DiGraph, []int64, error) {
	return graph.ReadDiEdgeListFile(path)
}

// DiOptions configures BuildDiIndex.
type DiOptions struct {
	// NumLandmarks is |R| (default 20). Landmarks are the top vertices
	// by total (in+out) degree unless overridden.
	NumLandmarks int
	// Landmarks overrides selection.
	Landmarks []V
	// Parallelism bounds labelling workers (0 = GOMAXPROCS).
	Parallelism int
}

// DiIndex is an immutable directed QbS index; safe for concurrent
// queries.
type DiIndex struct {
	core *core.Index
	g    *DiGraph
	pool sync.Pool
}

func newDiIndex(cix *core.Index, g *DiGraph) *DiIndex {
	ix := &DiIndex{core: cix, g: g}
	ix.pool.New = func() any { return core.NewSearcher(cix) }
	return ix
}

// BuildDiIndex constructs a directed QbS index over g.
func BuildDiIndex(g *DiGraph, opts DiOptions) (*DiIndex, error) {
	cix, err := core.BuildDirected(g, core.Options{
		NumLandmarks: opts.NumLandmarks,
		Landmarks:    opts.Landmarks,
		Parallelism:  opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return newDiIndex(cix, g), nil
}

// MustBuildDiIndex is BuildDiIndex that panics on error.
func MustBuildDiIndex(g *DiGraph, opts DiOptions) *DiIndex {
	ix, err := BuildDiIndex(g, opts)
	if err != nil {
		panic(err)
	}
	return ix
}

// Query answers the directed SPG(u → v).
func (ix *DiIndex) Query(u, v V) *DiSPG {
	return ix.QueryInto(graph.NewDiSPG(u, v), u, v)
}

// QueryInto answers SPG(u → v) into a caller-owned result, resetting it
// first, and returns dst. Reusing one DiSPG across queries keeps the
// warm query path free of heap allocations (the arc buffer is recycled
// at its high-water mark); serving loops that answer-and-encode should
// prefer it over Query.
func (ix *DiIndex) QueryInto(dst *DiSPG, u, v V) *DiSPG {
	ix.QueryIntoStats(dst, u, v)
	return dst
}

// QueryIntoStats is QueryInto that reports query internals instead of
// returning dst: the serving shape, one search into a recycled result.
func (ix *DiIndex) QueryIntoStats(dst *DiSPG, u, v V) DiQueryStats {
	sr := ix.pool.Get().(*core.Searcher)
	defer ix.pool.Put(sr)
	return sr.QueryInto(dst, u, v)
}

// QueryWithStats answers SPG(u → v) and reports query internals.
func (ix *DiIndex) QueryWithStats(u, v V) (*DiSPG, DiQueryStats) {
	spg := graph.NewDiSPG(u, v)
	return spg, ix.QueryIntoStats(spg, u, v)
}

// Distance returns d_G(u → v) using the sketch-guided search without
// path extraction (InfDist when v is unreachable from u).
func (ix *DiIndex) Distance(u, v V) int32 {
	sr := ix.pool.Get().(*core.Searcher)
	defer ix.pool.Put(sr)
	return sr.Distance(u, v)
}

// Sketch computes the directed query sketch S_{u→v} (for introspection;
// Query computes it internally).
func (ix *DiIndex) Sketch(u, v V) *DiSketch { return ix.core.Sketch(u, v) }

// QueryBatch answers many directed queries concurrently with up to
// parallelism workers (0 = GOMAXPROCS, capped at the batch size).
// Results align with the input slice. Each worker draws a searcher from
// the index's pool and answers into per-chunk result arenas, so
// repeated batches reuse workspaces and steady-state queries stay off
// the allocator.
//
// A query that panics (e.g. an out-of-range vertex id) does not bring
// the batch down: its slot is left nil and all remaining results are
// returned.
func (ix *DiIndex) QueryBatch(pairs []Pair, parallelism int) []*DiSPG {
	out := make([]*DiSPG, len(pairs))
	core.QueryBatchInto(out, parallelism,
		func(i int) (V, V) { return pairs[i].U, pairs[i].V },
		func() *core.Searcher { return ix.pool.Get().(*core.Searcher) },
		func(sr *core.Searcher) { ix.pool.Put(sr) })
	return out
}

// Landmarks returns the landmark vertices in rank order.
func (ix *DiIndex) Landmarks() []V { return ix.core.Landmarks() }

// IsLandmark reports whether v is a landmark.
func (ix *DiIndex) IsLandmark(v V) bool { return ix.core.IsLandmark(v) }

// Stats returns construction statistics.
func (ix *DiIndex) Stats() DiIndexStats { return ix.core.Stats() }

// SizeLabelsBytes is the size(L) accounting: 2·|R| bytes per vertex
// (two directed labellings).
func (ix *DiIndex) SizeLabelsBytes() int64 { return ix.core.SizeLabelsBytes() }

// SizeDeltaBytes is the size(Δ) accounting: 8 bytes per precomputed
// meta-arc shortest-path arc.
func (ix *DiIndex) SizeDeltaBytes() int64 { return ix.core.SizeDeltaBytes() }

// Graph returns the indexed digraph.
func (ix *DiIndex) Graph() *DiGraph { return ix.g }

// DiStoreOptions configures CreateDiStore and OpenDiStore.
type DiStoreOptions struct {
	// Index carries the construction settings used by CreateDiStore;
	// OpenDiStore ignores it — the landmark set is part of the persisted
	// snapshot.
	Index DiOptions
	// MMap maps the snapshot read-only instead of reading it into memory
	// — the fastest open path; the mapping lives until process exit.
	MMap bool
}

// CreateDiStore builds a directed index over g (costing one
// BuildDiIndex) and persists it into dir as a single checksummed
// snapshot (format v5: dual CSR, directed labels, σ and Δ). The
// directed index is immutable, so there is no write-ahead log — the
// snapshot is the whole store. dir must not already contain one.
func CreateDiStore(dir string, g *DiGraph, opts DiStoreOptions) (*DiIndex, error) {
	ix, err := BuildDiIndex(g, opts.Index)
	if err != nil {
		return nil, err
	}
	if err := store.CreateDi(dir, g, ix.core.DirectedState()); err != nil {
		return nil, err
	}
	return ix, nil
}

// OpenDiStore recovers the directed index persisted in dir without
// recomputation: the dual CSR, both label matrices, σ and Δ are adopted
// zero-copy from the validated file arena, and only the O(|R|³) meta
// state is rebuilt. Opening is typically orders of magnitude faster
// than rebuilding.
func OpenDiStore(dir string, opts DiStoreOptions) (*DiIndex, error) {
	cix, g, err := store.OpenDi(dir, opts.MMap)
	if err != nil {
		return nil, err
	}
	return newDiIndex(cix, g), nil
}

// DiStoreExists reports whether dir already contains a directed store.
func DiStoreExists(dir string) bool { return store.DiExists(dir) }

// DiBiBFS answers the directed SPG(u → v) by bidirectional BFS — the
// index-free baseline.
func DiBiBFS(g *DiGraph, u, v V) *DiSPG {
	s := bfs.NewDiBidirectional(g)
	spg, _ := s.Query(u, v)
	return spg
}

// OracleDiSPG computes the directed SPG by two full BFS sweeps
// (reference implementation for testing).
func OracleDiSPG(g *DiGraph, u, v V) *DiSPG { return bfs.OracleDiSPG(g, u, v) }
