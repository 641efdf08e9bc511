// Package ppl implements the paper's labelling-based baselines for
// shortest-path-graph queries (§3.2):
//
//   - PPL — pruned path labelling: a 2-hop labelling satisfying the
//     2-hop *path* cover property (Definition 3.2), built by one pruned
//     BFS per vertex in descending-degree order.
//   - ParentPPL — PPL with complete parent sets attached to every label
//     entry, trading memory for faster query-time path reconstruction.
//
// # Correction to the paper's Algorithm 1
//
// Algorithm 1 as printed prunes expansion whenever the label-estimated
// distance d_{L_{k−1}}(v_k, u) equals the BFS depth. That cut makes
// vertices beyond u unreachable in v_k's BFS, so they never receive the
// label (v_k, ·) even when Definition 3.2 requires it. Concretely, on a
// 5×5 grid with the paper's degree order, the pair (0, 12) ends up with
// vertex 6 as its only common witness, and the query recursion loses the
// shortest paths avoiding vertex 6 (see TestPaperAlgorithm1Counterexample).
//
// We therefore build the *canonical* path labelling instead:
//
//	(v_k, δ) ∈ L(u)  ⇔  some shortest v_k–u path has all interior
//	                     vertices ranked after v_k in the landmark order.
//
// This rule provably satisfies the 2-hop path cover: for any shortest
// path p between u and v with |p| ≥ 2, the earliest-ranked interior
// vertex w* of p witnesses the pair, since the sub-paths u…w* and w*…v
// have interiors ranked after w*. It is computed by one BFS per root
// with a has-clean-parent DP, stopping early once a level carries no
// labelled vertex; worst-case construction stays O(|V||E|), the
// scalability wall the paper contrasts QbS against.
//
// Construction accepts time and size budgets so the experiment harness
// can reproduce the paper's DNF (>time limit) and OOE (out of memory)
// table entries at laptop scale.
package ppl

import (
	"errors"
	"time"

	"qbs/internal/graph"
)

// ErrTimeBudget reports that construction exceeded Options.MaxTime
// (the paper's DNF, "did not finish").
var ErrTimeBudget = errors.New("ppl: construction exceeded time budget (DNF)")

// ErrSizeBudget reports that the labelling exceeded
// Options.MaxLabelBytes (the paper's OOE, "out of memory").
var ErrSizeBudget = errors.New("ppl: labelling exceeded size budget (OOE)")

// Options configures construction.
type Options struct {
	// WithParents builds ParentPPL instead of PPL.
	WithParents bool
	// MaxTime aborts construction when exceeded (0 = unlimited).
	MaxTime time.Duration
	// MaxLabelBytes aborts construction when the labelling's byte
	// accounting exceeds it (0 = unlimited).
	MaxLabelBytes int64
}

// entry is one label element: the landmark's rank in the degree order
// and the exact distance. Parents (ParentPPL only) are the neighbours of
// the labelled vertex one step closer to the landmark; the set is
// complete (every shortest-path predecessor), so parent walks enumerate
// all shortest paths toward the landmark.
type entry struct {
	rank    int32
	dist    int32
	parents []graph.V
}

// Index is a PPL or ParentPPL labelling.
type Index struct {
	g           *graph.Graph
	order       []graph.V // rank -> vertex
	rankOf      []int32   // vertex -> rank
	labels      [][]entry // per vertex, ascending rank
	withParents bool

	buildTime  time.Duration
	numEntries int64
	numParents int64
}

// BuildTime returns the construction wall time.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// NumEntries returns the total number of label entries.
func (ix *Index) NumEntries() int64 { return ix.numEntries }

// SizeBytes accounts the labelling like the paper (§6.1): 32 bits per
// landmark id, 8 bits per distance, and 32 bits per stored parent.
func (ix *Index) SizeBytes() int64 {
	return ix.numEntries*5 + ix.numParents*4
}

// Build constructs the labelling over g.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	n := g.NumVertices()
	ix := &Index{
		g:           g,
		order:       g.TotalDegreeOrder(),
		rankOf:      make([]int32, n),
		labels:      make([][]entry, n),
		withParents: opts.WithParents,
	}
	for rank, v := range ix.order {
		ix.rankOf[v] = int32(rank)
	}

	start := time.Now()
	deadline := time.Time{}
	if opts.MaxTime > 0 {
		deadline = start.Add(opts.MaxTime)
	}

	st := newBFSState(n)
	for rank := 0; rank < n; rank++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrTimeBudget
		}
		ix.canonicalBFS(int32(rank), st)
		if opts.MaxLabelBytes > 0 && ix.SizeBytes() > opts.MaxLabelBytes {
			return nil, ErrSizeBudget
		}
	}
	ix.buildTime = time.Since(start)
	return ix, nil
}

// MustBuild is Build that panics on error.
func MustBuild(g *graph.Graph, opts Options) *Index {
	ix, err := Build(g, opts)
	if err != nil {
		panic(err)
	}
	return ix
}

type bfsState struct {
	depth   []int32 // -1 = unvisited in current BFS
	clean   []bool  // reached via a shortest path with later-ranked interior
	cur     []graph.V
	next    []graph.V
	visited []graph.V
}

func newBFSState(n int) *bfsState {
	s := &bfsState{
		depth: make([]int32, n),
		clean: make([]bool, n),
	}
	for i := range s.depth {
		s.depth[i] = -1
	}
	return s
}

// canonicalBFS labels, from root = order[rank], every vertex u for which
// some shortest root–u path has all interior vertices ranked after rank.
// clean[u] tracks exactly that property via the DP
//
//	clean[u] = ∃ parent w at depth−1 : w = root ∨ (rankOf(w) > rank ∧ clean[w])
//
// Levels are expanded completely (so depths of all potential parents are
// exact) until a level contains no clean vertex, at which point no deeper
// vertex can become clean and the BFS stops.
func (ix *Index) canonicalBFS(rank int32, st *bfsState) {
	g := ix.g
	root := ix.order[rank]

	st.depth[root] = 0
	st.clean[root] = true
	st.visited = append(st.visited[:0], root)
	st.cur = append(st.cur[:0], root)
	ix.addLabel(root, rank, 0, nil)

	depth := int32(0)
	for len(st.cur) > 0 {
		// Discover the next level completely.
		st.next = st.next[:0]
		for _, u := range st.cur {
			for _, w := range g.Neighbors(u) {
				if st.depth[w] < 0 {
					st.depth[w] = depth + 1
					st.visited = append(st.visited, w)
					st.next = append(st.next, w)
				}
			}
		}
		// Classify the new level and emit labels.
		anyClean := false
		for _, u := range st.next {
			clean := false
			for _, w := range g.Neighbors(u) {
				if st.depth[w] == depth && (w == root || (ix.rankOf[w] > rank && st.clean[w])) {
					clean = true
					break
				}
			}
			st.clean[u] = clean
			if clean {
				anyClean = true
				var parents []graph.V
				if ix.withParents {
					for _, w := range g.Neighbors(u) {
						if st.depth[w] == depth {
							parents = append(parents, w)
						}
					}
				}
				ix.addLabel(u, rank, depth+1, parents)
			}
		}
		if !anyClean {
			break
		}
		st.cur, st.next = st.next, st.cur
		depth++
	}

	for _, v := range st.visited {
		st.depth[v] = -1
		st.clean[v] = false
	}
	st.visited = st.visited[:0]
	st.cur = st.cur[:0]
	st.next = st.next[:0]
}

// addLabel appends (rank, dist) to u's label. Ranks arrive in strictly
// increasing order across BFS roots, so appending keeps labels sorted.
func (ix *Index) addLabel(u graph.V, rank, dist int32, parents []graph.V) {
	ix.labels[u] = append(ix.labels[u], entry{rank: rank, dist: dist, parents: parents})
	ix.numEntries++
	ix.numParents += int64(len(parents))
}

// Distance returns d_G(u, v) via the 2-hop labels (exact by the distance
// cover property), or graph.InfDist when disconnected.
func (ix *Index) Distance(u, v graph.V) int32 {
	if u == v {
		return 0
	}
	best := graph.InfDist
	la, lb := ix.labels[u], ix.labels[v]
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i].rank < lb[j].rank:
			i++
		case la[i].rank > lb[j].rank:
			j++
		default:
			if d := la[i].dist + lb[j].dist; d < best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

// commonMinimizers returns the vertices r ∉ {u, v} whose label pair
// witnesses d(u, v) = d: the set V_uv driving the PPL query recursion,
// together with the per-side distances.
func (ix *Index) commonMinimizers(u, v graph.V, d int32) []minimizer {
	var out []minimizer
	la, lb := ix.labels[u], ix.labels[v]
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i].rank < lb[j].rank:
			i++
		case la[i].rank > lb[j].rank:
			j++
		default:
			if la[i].dist+lb[j].dist == d {
				r := ix.order[la[i].rank]
				if r != u && r != v {
					out = append(out, minimizer{r: r, du: la[i].dist, dv: lb[j].dist})
				}
			}
			i++
			j++
		}
	}
	return out
}

type minimizer struct {
	r      graph.V
	du, dv int32
}
