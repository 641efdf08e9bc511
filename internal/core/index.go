// Package core implements Query-by-Sketch (QbS), the primary
// contribution of the paper: a labelling scheme built from a small set of
// landmarks (Algorithm 2), a fast per-query sketch (Algorithm 3) and a
// sketch-guided search (Algorithm 4) that together answer
// shortest-path-graph queries SPG(u, v) exactly.
//
// The Index is immutable after Build and safe for concurrent queries when
// each goroutine uses its own Searcher (a Reader hands them out). The
// dynamic-update subsystem (internal/dynamic) is this index plus a
// writer: its full builds are Shell.BuildMaintained — the same sweep,
// meta state and Δ recovery as Build — and every epoch it publishes is
// Shell.Index over the parts it repaired.
//
// # Directed graphs
//
// The paper gives the directed case one sentence (§2: "our work can be
// easily extended to directed ... graphs"). This package takes it at its
// word: the engine is written once, in directed terms, over an (out, in)
// adjacency pair, and answers SPG(u → v), the union of all shortest
// directed u→v paths. Every structure has a direction:
//
//   - each landmark r keeps two labellings, labelFrom(v) = d(r→v) and
//     labelTo(v) = d(v→r), each restricted to shortest paths avoiding
//     other landmarks (one sweep over out-arcs, one over in-arcs);
//   - the meta-graph is a weighted digraph: σ(a→b) = d_G(a→b) when some
//     shortest a→b path avoids other landmarks, and its APSP, the
//     shortest-meta-path table and the Δ lists are oriented;
//   - the sketch bound is d⊤ = min δ(u→r) + d_M(r→r') + δ(r'→v);
//   - the guided search runs forward from u over out-arcs and backward
//     from v over in-arcs on the landmark-sparsified digraph, and every
//     stage emits oriented pairs x→y.
//
// An undirected graph is the aliasing case, not a second code path:
// out == in, so one sweep fills the one labelling both names point at,
// the meta-graph keeps each edge once (a < b) and the answer drops the
// orientation (graph.SPG.Fill normalises a pair unless told the index is
// directed). Whether a graph is symmetric is read from out == in, never
// from an option.
//
// Correctness mirrors the undirected proofs: shortest directed walks of
// length d(u, v) are simple, prefixes up to the first landmark witness
// labelTo entries of u, suffixes after the last landmark witness
// labelFrom entries of v, and landmark-to-landmark segments decompose
// into meta-arcs.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"qbs/internal/graph"
)

// NoEntry marks an absent label entry. Following the paper (§6.1), each
// vertex stores |R| bytes, one distance byte per landmark; distances must
// therefore stay below 255, which holds for the small-diameter complex
// networks the method targets. Build fails with ErrDiameterTooLarge
// otherwise.
const NoEntry = uint8(255)

// MaxLabelDist is the largest distance representable in a label byte.
const MaxLabelDist = int32(254)

// ErrDiameterTooLarge is returned by Build when some label distance
// exceeds the 8-bit representation limit of the labelling.
var ErrDiameterTooLarge = errors.New("core: graph distance exceeds 254, cannot encode labels in 8 bits")

// DefaultNumLandmarks is the paper's default landmark count (|R| = 20).
const DefaultNumLandmarks = 20

// Options configures Build.
type Options struct {
	// NumLandmarks is |R|. Defaults to DefaultNumLandmarks; capped at the
	// vertex count and at 254 (landmark indices must fit alongside the
	// byte-encoded distances).
	NumLandmarks int
	// Strategy selects landmarks on an undirected graph. Defaults to
	// ByDegree (the paper's choice: highest-degree vertices). A digraph
	// takes its landmarks by total (in+out) degree.
	Strategy LandmarkStrategy
	// Landmarks overrides selection with an explicit set (used by tests
	// and the landmark-strategy ablation). Ignored when nil.
	Landmarks []graph.V
	// Parallelism is the total labelling worker budget. 0 means
	// GOMAXPROCS (the paper's QbS-P); 1 reproduces sequential QbS.
	// Workers first spread across 64-landmark batches; any budget left
	// over (always, at the paper's |R| = 20) is the width of each
	// sweep's bottom-up levels (traverse.MultiBFS.Parallelism). Labels,
	// σ and Δ are bit-identical at every setting.
	Parallelism int
	// Seed feeds randomized strategies (Random landmark selection).
	Seed int64
}

// ClampLandmarks returns the effective landmark count for a requested
// |R| over an n-vertex graph: the default when unset, capped at n and at
// the 254 representation limit. Shared by Build and the dynamic index so
// the two entry points can never disagree.
func ClampLandmarks(requested, n int) int {
	if requested <= 0 {
		requested = DefaultNumLandmarks
	}
	if requested > n {
		requested = n
	}
	if requested > 254 {
		requested = 254
	}
	return requested
}

func (o Options) withDefaults(n int) Options {
	o.NumLandmarks = ClampLandmarks(o.NumLandmarks, n)
	if o.Strategy == nil {
		o.Strategy = ByDegree
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// metaEdge is an edge a→b of the meta-graph M: landmarks (as indices
// into the landmark slice) with a shortest a→b path avoiding other
// landmarks. A symmetric meta-graph keeps each edge once, as a < b.
type metaEdge struct {
	a, b   int
	weight int32 // σ(a→b) = d_G(a→b)
}

// Shell is what an index keeps for its whole life, and what every epoch
// of a maintained index shares: the landmark set and its reverse map.
// NewShell is the one place a landmark set is validated; an Index embeds
// its shell by value, so deriving an index from a shell copies three
// words and allocates nothing per vertex.
type Shell struct {
	landmarks []graph.V // landmark vertex ids, index = landmark rank
	landIdx   []int16   // per vertex: rank, or -1
	numLand   int
}

// NewShell validates a landmark set over n vertices.
func NewShell(n int, landmarks []graph.V) (*Shell, error) {
	if len(landmarks) > 254 {
		return nil, fmt.Errorf("core: %d landmarks exceed the 254 maximum", len(landmarks))
	}
	sh := &Shell{landmarks: landmarks, landIdx: make([]int16, n), numLand: len(landmarks)}
	for i := range sh.landIdx {
		sh.landIdx[i] = -1
	}
	for i, r := range landmarks {
		if r < 0 || int(r) >= n {
			return nil, fmt.Errorf("core: landmark %d out of range", r)
		}
		if sh.landIdx[r] >= 0 {
			return nil, fmt.Errorf("core: duplicate landmark %d", r)
		}
		sh.landIdx[r] = int16(i)
	}
	return sh, nil
}

// NumVertices returns |V|.
func (sh *Shell) NumVertices() int { return len(sh.landIdx) }

// Landmarks returns the landmark vertex ids (rank order). The slice
// aliases internal storage and must not be modified.
func (sh *Shell) Landmarks() []graph.V { return sh.landmarks }

// NumLandmarks returns |R|.
func (sh *Shell) NumLandmarks() int { return sh.numLand }

// Rank returns the landmark rank of v, or -1.
func (sh *Shell) Rank(v graph.V) int { return int(sh.landIdx[v]) }

// IsLandmark reports whether v is a landmark.
func (sh *Shell) IsLandmark(v graph.V) bool { return sh.landIdx[v] >= 0 }

// Index is the QbS labelling scheme L = (M, L) plus the precomputed
// landmark-pair structures of §5.2: APSP over the meta-graph and Δ, the
// shortest path graphs between meta-adjacent landmarks.
type Index struct {
	Shell

	g *graph.Graph // the static graph; nil when put together by Shell.Index

	// out and in are the adjacency pair every traversal runs over: out
	// pushes along arcs, in is its reverse. They are the same value for
	// an undirected graph, which is how the index knows it is symmetric.
	out, in graph.Adjacency

	// The label matrices, stored column-major: labelTo[i][v] is the
	// labelled distance from vertex v to landmark rank i, labelFrom[i][v]
	// from the landmark to v, or NoEntry. Symmetric indexes hold the same
	// slices under both names. Column storage lets the dynamic subsystem
	// share unchanged columns between snapshots (copy-on-write per
	// landmark) and the store adopt them from a snapshot arena.
	labelTo, labelFrom [][]uint8

	ms *MetaState

	// delta holds, per meta-edge, the SPG between its endpoints in G.
	// Edge{U, W} is the arc U→W; symmetric indexes normalise it (U < W).
	delta [][]graph.Edge

	build BuildStats
}

// symmetric reports whether the index is over an undirected graph.
func (ix *Index) symmetric() bool { return ix.out == ix.in }

// BuildStats reports construction cost and size accounting (Tables 2, 3).
type BuildStats struct {
	LabellingTime time.Duration // Algorithm 2 (all landmark BFSes)
	MetaTime      time.Duration // APSP + Δ recovery
	TotalTime     time.Duration
	Parallelism   int
	NumLandmarks  int
	LabelEntries  int64 // number of non-empty label entries (both labellings of a digraph)
	MetaEdges     int
	DeltaEdges    int64
}

// SizeLabelsBytes is the paper's size(L): |R| bytes per vertex and
// labelling (a digraph has two).
func (ix *Index) SizeLabelsBytes() int64 {
	size := int64(ix.out.NumVertices()) * int64(ix.numLand)
	if !ix.symmetric() {
		size *= 2
	}
	return size
}

// SizeDeltaBytes is the paper's size(Δ): 8 bytes per precomputed
// landmark-pair shortest-path edge.
func (ix *Index) SizeDeltaBytes() int64 { return ix.build.DeltaEdges * 8 }

// SizeMetaBytes is the meta-graph footprint (σ and APSP matrices).
func (ix *Index) SizeMetaBytes() int64 {
	return int64(len(ix.ms.sigma)) + int64(len(ix.ms.distM))*4
}

// Stats returns construction statistics.
func (ix *Index) Stats() BuildStats { return ix.build }

// Graph returns the indexed static graph, or nil when the index was put
// together by Shell.Index (use Adjacency then).
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Adjacency returns the (out-)adjacency the index answers queries over.
func (ix *Index) Adjacency() graph.Adjacency { return ix.out }

// Label returns the label entries of v (distances to the landmarks) as
// parallel slices of landmark ranks and distances, freshly allocated.
// Landmarks have empty labels.
func (ix *Index) Label(v graph.V) (ranks []int, dists []int32) {
	for i := 0; i < ix.numLand; i++ {
		if d := ix.labelTo[i][v]; d != NoEntry {
			ranks = append(ranks, i)
			dists = append(dists, int32(d))
		}
	}
	return ranks, dists
}

// LabelEntry returns the labelled distance from v to landmark rank i, or
// (0, false) when the entry is absent.
func (ix *Index) LabelEntry(v graph.V, i int) (int32, bool) {
	d := ix.labelTo[i][v]
	if d == NoEntry {
		return 0, false
	}
	return int32(d), true
}

// Meta returns the frozen meta-graph state.
func (ix *Index) Meta() *MetaState { return ix.ms }

// MetaDist returns d_M between landmark ranks i and j (graph.InfDist when
// unreachable).
func (ix *Index) MetaDist(i, j int) int32 { return ix.ms.Dist(i, j) }

// MetaEdgeWeight returns σ(i, j) and whether the meta-edge exists.
func (ix *Index) MetaEdgeWeight(i, j int) (int32, bool) {
	s := ix.ms.Sigma(i, j)
	if s == NoEntry {
		return 0, false
	}
	return int32(s), true
}

// MetaEdges returns the meta-graph edge list as (rankA, rankB, weight)
// triples: rankA < rankB when symmetric, the arc rankA→rankB otherwise.
func (ix *Index) MetaEdges() [][3]int32 {
	out := make([][3]int32, len(ix.ms.meta))
	for k, e := range ix.ms.meta {
		out[k] = [3]int32{int32(e.a), int32(e.b), e.weight}
	}
	return out
}

// Delta returns the precomputed shortest-path-graph edges between the
// endpoints of meta-edge k (as returned by MetaEdges). The slice aliases
// internal storage.
func (ix *Index) Delta(k int) []graph.Edge { return ix.delta[k] }

// Build constructs the QbS index over g, answering SPG(u → v) when g is
// directed. Landmarks default to the top vertices by total degree. The
// graph is retained by reference and must not be mutated afterwards.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	start := time.Now()
	opts = opts.withDefaults(g.NumVertices())
	landmarks := opts.Landmarks
	if landmarks == nil {
		landmarks = opts.Strategy(g, opts.NumLandmarks, opts.Seed)
	}
	sh, err := NewShell(g.NumVertices(), landmarks)
	if err != nil {
		return nil, err
	}
	degsOut, degsIn := g.Degrees()
	return sh.build(start, &Index{g: g, out: g.OutView(), in: g.InView()}, degsOut, degsIn, opts, nil)
}

// BuildMaintained is Build over any undirected adjacency — the dynamic
// index's overlay, at epoch 0 and at every compaction — with the shell's
// landmarks, for an index that will be repaired in place afterwards: the
// one labelling sweep also writes the one thing repair needs beyond the
// labels, the plain BFS distance from every landmark to every vertex
// (graph.InfDist where unreachable), one column per landmark rank.
// parallelism is Options.Parallelism.
func (sh *Shell) BuildMaintained(a graph.Adjacency, parallelism int) (*Index, [][]int32, error) {
	start := time.Now()
	dist := make([][]int32, sh.numLand)
	for r, root := range sh.landmarks {
		dist[r] = make([]int32, sh.NumVertices())
		for v := range dist[r] {
			dist[r][v] = graph.InfDist
		}
		dist[r][root] = 0
	}
	opts := Options{Parallelism: parallelism}.withDefaults(sh.NumVertices())
	ix, err := sh.build(start, &Index{out: a, in: a}, nil, nil, opts, dist)
	return ix, dist, err
}

// build runs construction for the shell's landmarks into ix, which
// arrives holding its graph and adjacency pair. degsOut and degsIn cache
// per-vertex degrees as flat arrays for the α/β direction heuristic of
// the labelling sweeps (an interface Degree call per frontier vertex
// would dominate the switch bookkeeping; one array when symmetric, nil
// over a mutable adjacency).
func (sh *Shell) build(start time.Time, ix *Index, degsOut, degsIn []int32, opts Options, dist [][]int32) (*Index, error) {
	ix.Shell = *sh

	labStart := time.Now()
	if err := ix.buildLabelling(opts.Parallelism, degsOut, degsIn, dist); err != nil {
		return nil, err
	}
	ix.build.LabellingTime = time.Since(labStart)

	metaStart := time.Now()
	ix.buildDelta()
	ix.build.MetaTime = time.Since(metaStart)

	ix.build.TotalTime = time.Since(start)
	ix.build.Parallelism = opts.Parallelism
	ix.build.NumLandmarks = ix.numLand
	return ix, nil
}

// MustBuild is Build that panics on error (tests, examples).
func MustBuild(g *graph.Graph, opts Options) *Index {
	ix, err := Build(g, opts)
	if err != nil {
		panic(err)
	}
	return ix
}

// Index puts an index together over the adjacency pair (out, in) from
// parts built or maintained elsewhere — the label columns, the meta state
// and the Δ lists — adopting them by reference (the caller promises they
// are frozen: an epoch of the dynamic index's copy-on-write state, views
// into a read-only snapshot arena) and checking their shapes only. delta
// must align with ms's deterministic edge order and must be non-nil.
// Nothing per vertex is allocated, copied or validated: the landmark set
// was checked when the shell was made.
func (sh *Shell) Index(out, in graph.Adjacency, labelTo, labelFrom [][]uint8, ms *MetaState, delta [][]graph.Edge) (*Index, error) {
	n := sh.NumVertices()
	if out.NumVertices() != n || in.NumVertices() != n {
		return nil, fmt.Errorf("core: adjacency over %d/%d vertices for a shell over %d", out.NumVertices(), in.NumVertices(), n)
	}
	for _, labels := range [2][][]uint8{labelTo, labelFrom} {
		if len(labels) != sh.numLand {
			return nil, fmt.Errorf("core: %d label columns for %d landmarks", len(labels), sh.numLand)
		}
		for _, col := range labels {
			if len(col) != n {
				return nil, fmt.Errorf("core: label column of %d entries for %d vertices", len(col), n)
			}
		}
	}
	if ms == nil || ms.R != sh.numLand {
		return nil, fmt.Errorf("core: meta state does not match landmark count")
	}
	if len(delta) != len(ms.meta) {
		return nil, fmt.Errorf("core: %d delta lists for %d meta edges", len(delta), len(ms.meta))
	}
	ix := &Index{Shell: *sh, out: out, in: in, labelTo: labelTo, labelFrom: labelFrom, ms: ms, delta: delta}
	ix.build.NumLandmarks = sh.numLand
	ix.build.MetaEdges = len(ms.meta)
	for _, d := range delta {
		ix.build.DeltaEdges += int64(len(d))
	}
	return ix, nil
}

// State is the frozen state of an Index: what the durable store
// serialises and restores of a directed one, and what the dynamic index
// takes over from a full build to repair from then on. All slices alias
// index state and must not be modified. Sigma is symmetric and the two
// labellings are one over an undirected graph. Delta lists are in the
// canonical meta-edge order (ascending (from, to) rank, a < b only when
// undirected — a pure function of σ).
type State struct {
	Landmarks          []graph.V
	Sigma              []uint8 // |R|×|R| row-major, row = from-rank
	LabelTo, LabelFrom [][]uint8
	Delta              [][]graph.Edge
}

// State captures the index state.
func (ix *Index) State() State {
	return State{
		Landmarks: ix.landmarks,
		Sigma:     ix.ms.sigma,
		LabelTo:   ix.labelTo,
		LabelFrom: ix.labelFrom,
		Delta:     ix.delta,
	}
}

// AssembleDirected reassembles a directed index over g from persisted
// state without any BFS work: the labels and Δ are adopted by reference
// (they may be views into a read-only snapshot arena — the index never
// writes them), and only the meta state is recomputed from σ
// (O(|R|³), independent of graph size).
func AssembleDirected(g *graph.Graph, st State) (*Index, error) {
	sh, err := NewShell(g.NumVertices(), st.Landmarks)
	if err != nil {
		return nil, err
	}
	if R := sh.numLand; len(st.Sigma) != R*R {
		return nil, fmt.Errorf("core: %d sigma entries for %d landmarks", len(st.Sigma), R)
	}
	ix, err := sh.Index(g.OutView(), g.InView(), st.LabelTo, st.LabelFrom, newMetaState(sh.numLand, st.Sigma, false), st.Delta)
	if err != nil {
		return nil, err
	}
	ix.g = g
	ix.build.LabelEntries = ix.countLabelEntries()
	return ix, nil
}
