package qbs

import (
	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/graph"
	"qbs/internal/store"
)

// Directed API: the paper's §2 extension to directed graphs, answering
// SPG(u → v) — the union of all shortest *directed* paths. It is the
// same engine as the undirected index (internal/core, "Directed
// graphs") bound to a digraph's out- and in-arcs, read through the same
// core.Reader and answering with the same SPG type (its orientation bit set,
// its Edges the arcs U→W), so it carries the same serving surface —
// Distance, zero-alloc QueryInto, panic-isolated QueryBatch, Sketch,
// Stats — plus snapshot persistence via CreateDiStore/OpenDiStore.

type (
	// Arc is a directed edge From → To.
	Arc = graph.Arc
	// DiGraph is an immutable directed graph (dual CSR).
	DiGraph = graph.DiGraph
	// DiBuilder accumulates arcs and produces a DiGraph.
	DiBuilder = graph.DiBuilder
	// DiSPG is SPG: a DiIndex stamps its answers directed.
	DiSPG = graph.SPG
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
// queries. Its read methods are core.Reader's, as every index kind's.
type DiIndex struct {
	*static
	g *DiGraph
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
	return &DiIndex{newStatic(cix), g}, nil
}

// MustBuildDiIndex is BuildDiIndex that panics on error.
func MustBuildDiIndex(g *DiGraph, opts DiOptions) *DiIndex {
	ix, err := BuildDiIndex(g, opts)
	if err != nil {
		panic(err)
	}
	return ix
}

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
	if err := store.CreateDi(dir, g, ix.core.State()); err != nil {
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
	return &DiIndex{newStatic(cix), g}, nil
}

// DiStoreExists reports whether dir already contains a directed store.
func DiStoreExists(dir string) bool { return store.DiExists(dir) }

// DiBiBFS answers the directed SPG(u → v) by bidirectional BFS — the
// index-free baseline.
func DiBiBFS(g *DiGraph, u, v V) *DiSPG {
	spg, _ := bfs.NewDirectedBidirectional(g).Query(u, v)
	return spg
}

// OracleDiSPG computes the directed SPG by two full BFS sweeps
// (reference implementation for testing).
func OracleDiSPG(g *DiGraph, u, v V) *DiSPG { return bfs.OracleDiSPG(g, u, v) }
