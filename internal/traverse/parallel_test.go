// Property tests for MultiBFS's bottom-up pool: with Parallelism > 1 the
// engine must produce the settle payloads of a width-1 run — same
// payload per (vertex, depth) — on random graphs, disconnected graphs and
// the regular structures, in every direction mode. CI runs these under
// -race with GOMAXPROCS=4, which is what actually checks that every
// worker keeps to its own chunks: the assertions alone would pass even
// with torn writes.
package traverse_test

import (
	"sync"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// settleKey identifies one settle event; settleVal carries its payload.
type settleKey struct {
	v     graph.V
	depth int32
}

// collectMulti runs MultiBFS with the given parallelism and returns the
// settle stream as a set keyed by (vertex, depth). The pool floor is 1,
// so every bottom-up level runs at the given width however small the
// graph; with alpha = -1 that is every level. The callback locks: with
// workers > 1 it is invoked concurrently by contract.
func collectMulti(t *testing.T, g *graph.Graph, landIdx []int16, roots []graph.V, alpha int64, workers int) map[settleKey][2]uint64 {
	t.Helper()
	mb := traverse.NewMultiBFS(g.NumVertices())
	traverse.SetAlpha(mb, alpha)
	traverse.SetPoolFloor(mb, 1)
	mb.Parallelism = workers
	return settlePayloads(t, mb, g, landIdx, roots)
}

// settlePayloads runs mb as configured and returns its settle stream as
// collectMulti does.
func settlePayloads(t *testing.T, mb *traverse.MultiBFS, g *graph.Graph, landIdx []int16, roots []graph.V) map[settleKey][2]uint64 {
	t.Helper()
	out := map[settleKey][2]uint64{}
	var mu sync.Mutex
	err := mb.Run(g, nil, landIdx, roots, 1<<30, func(v graph.V, depth int32, newL, newN uint64) {
		mu.Lock()
		if _, dup := out[settleKey{v, depth}]; dup {
			t.Errorf("vertex %d settled twice at depth %d", v, depth)
		}
		out[settleKey{v, depth}] = [2]uint64{newL, newN}
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("MultiBFS workers=%d: %v", mb.Parallelism, err)
	}
	return out
}

func TestMultiBFSParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		roots int
	}{
		{"sparse-disconnected", randomGraph(80, 50, 41), 7},
		{"mid", randomGraph(300, 2000, 42), 20},
		{"full-width", randomGraph(500, 4000, 43), 64},
		{"isolated-heavy", randomGraph(400, 150, 44), 16},
		{"star", graph.Star(257), 5},
		{"path", graph.Path(90), 3},
		// Several chunks, the last one ragged, so workers claim chunks
		// and their ranges of the next-level list are packed. Sparse
		// enough (mean degree ~5) that the sweep returns top-down after
		// its pooled levels: a vertex lost in the packing then shows.
		{"multi-chunk", randomGraph(3*1024+37, 8000, 45), 64},
	} {
		g := tc.g
		n := g.NumVertices()
		roots := make([]graph.V, 0, tc.roots)
		for i := 0; len(roots) < tc.roots && i < n; i++ {
			roots = append(roots, graph.V((i*13)%n))
			for j := 0; j < len(roots)-1; j++ {
				if roots[j] == roots[len(roots)-1] {
					roots = roots[:len(roots)-1]
					break
				}
			}
		}
		// Mark every third root's vertex a landmark so the QL/QN
		// absorption rule is exercised, not just plain BFS.
		landIdx := make([]int16, n)
		for i := range landIdx {
			landIdx[i] = -1
		}
		for i := 0; i < len(roots); i += 3 {
			landIdx[roots[i]] = int16(i)
		}
		for _, alpha := range []int64{traverse.DefaultAlpha, 0, -1, 1} {
			want := collectMulti(t, g, landIdx, roots, alpha, 1)
			for _, workers := range []int{2, 3, 8} {
				got := collectMulti(t, g, landIdx, roots, alpha, workers)
				if len(got) != len(want) {
					t.Fatalf("%s alpha=%d workers=%d: %d settle events, want %d",
						tc.name, alpha, workers, len(got), len(want))
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("%s alpha=%d workers=%d: settle %v = %v, want %v",
							tc.name, alpha, workers, k, got[k], w)
					}
				}
			}
		}
	}
}

func TestMultiBFSParallelReuseAndDepthLimit(t *testing.T) {
	// Engine reuse across >64-source workloads (two consecutive 64-wide
	// batches on one engine) and after ErrTooDeep, with the pool on.
	g := randomGraph(400, 2600, 61)
	n := g.NumVertices()
	mb := traverse.NewMultiBFS(n)
	mb.Parallelism = 4
	traverse.SetPoolFloor(mb, 1)
	var mu sync.Mutex
	for batch := 0; batch < 2; batch++ {
		roots := make([]graph.V, 0, 64)
		for i := 0; len(roots) < 64; i++ {
			v := graph.V((batch*64 + i) % n)
			dup := false
			for _, r := range roots {
				if r == v {
					dup = true
					break
				}
			}
			if !dup {
				roots = append(roots, v)
			}
		}
		dist := make([][]int32, len(roots))
		for i := range dist {
			dist[i] = make([]int32, n)
			for v := range dist[i] {
				dist[i][v] = traverse.Infinity
			}
			dist[i][roots[i]] = 0
		}
		err := mb.Run(g, nil, nil, roots, 1<<30, func(v graph.V, depth int32, newL, newN uint64) {
			mu.Lock()
			for w := newL | newN; w != 0; w &= w - 1 {
				dist[trailing(w)][v] = depth
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, r := range roots {
			want := bfs.Distances(g, r)
			for v := 0; v < n; v++ {
				if dist[i][v] != want[v] {
					t.Fatalf("batch %d root %d: dist[%d] = %d, want %d", batch, r, v, dist[i][v], want[v])
				}
			}
		}
	}
	// Depth-limited pooled run must error and leave the engine clean. A
	// path never gets dense enough to switch, so bottom-up is forced.
	pg := graph.Path(400)
	pmb := traverse.NewMultiBFS(400)
	pmb.Parallelism = 4
	traverse.SetAlpha(pmb, -1)
	traverse.SetPoolFloor(pmb, 1)
	if err := pmb.Run(pg, nil, nil, []graph.V{0}, 10, func(graph.V, int32, uint64, uint64) {}); err != traverse.ErrTooDeep {
		t.Fatalf("depth-limited parallel run: %v, want ErrTooDeep", err)
	}
	got := make([]int32, 400)
	err := pmb.Run(pg, nil, nil, []graph.V{0}, 1<<30, func(v graph.V, depth int32, _, _ uint64) {
		mu.Lock()
		got[v] = depth
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("reuse after ErrTooDeep: %v", err)
	}
	for v := 1; v < 400; v++ {
		if got[v] != int32(v) {
			t.Fatalf("after error: dist[%d] = %d", v, got[v])
		}
	}
}

// blockingAdj wraps an adjacency; the first Neighbors call signals
// entered and parks on release, pinning a traversal mid-level so the
// concurrent-use guard can be hit deterministically.
type blockingAdj struct {
	graph.Adjacency
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockingAdj) Neighbors(v graph.V) []graph.V {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.Adjacency.Neighbors(v)
}

func TestMultiBFSConcurrentRunRejected(t *testing.T) {
	g := randomGraph(60, 200, 81)
	adj := &blockingAdj{Adjacency: g, entered: make(chan struct{}), release: make(chan struct{})}
	mb := traverse.NewMultiBFS(g.NumVertices())
	done := make(chan error, 1)
	go func() {
		done <- mb.Run(adj, nil, nil, []graph.V{0}, 1<<30, func(graph.V, int32, uint64, uint64) {})
	}()
	<-adj.entered
	if err := mb.Run(g, nil, nil, []graph.V{1}, 1<<30, func(graph.V, int32, uint64, uint64) {}); err != traverse.ErrConcurrentRun {
		t.Fatalf("concurrent Run: %v, want ErrConcurrentRun", err)
	}
	close(adj.release)
	if err := <-done; err != nil {
		t.Fatalf("pinned run failed: %v", err)
	}
	// And the engine works again once the first run drained.
	if err := mb.Run(g, nil, nil, []graph.V{1}, 1<<30, func(graph.V, int32, uint64, uint64) {}); err != nil {
		t.Fatalf("run after concurrent rejection: %v", err)
	}
}
