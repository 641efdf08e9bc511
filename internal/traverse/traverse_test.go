// Property tests for the traversal engines: a BFS grown level by level
// through ExpandMeeting (no other side) must produce exactly the
// distances of a plain queue BFS, and the 64-way bit-parallel
// multi-source BFS must agree with one independent BFS per source in
// every direction mode — on random graphs including disconnected ones,
// graphs built from edge lists with self-loop and duplicate entries, and
// the regular structures. CI runs these under -race.
package traverse_test

import (
	"fmt"
	mbits "math/bits"
	"math/rand"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// randomGraph builds a random graph with n vertices and ~m edge draws.
// Draws include self-loops and duplicates (dropped by the builder), and
// low m leaves the graph disconnected with isolated vertices.
func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := graph.V(rng.Intn(n))
		w := graph.V(rng.Intn(n))
		b.AddEdge(u, w) // u == w allowed: builder must drop it
	}
	return b.MustBuild()
}

// levelBFS runs a full single-source BFS through ExpandMeeting with no
// other side, leaving the distances in ws.
func levelBFS(g *graph.Graph, ws *traverse.Workspace, src graph.V) {
	ws.Reset()
	ws.SetDist(src, 0)
	frontier := []graph.V{src}
	for d := int32(0); len(frontier) > 0; d++ {
		frontier, _, _ = traverse.ExpandMeeting(g, ws, nil, frontier, d, frontier[:0:0], nil, false, false)
	}
}

func checkDistances(t *testing.T, label string, ws *traverse.Workspace, want []int32) {
	t.Helper()
	for v := range want {
		if got := ws.Dist(graph.V(v)); got != want[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got, want[v])
		}
	}
}

func TestExpanderMatchesPlainBFS(t *testing.T) {
	cases := []*graph.Graph{
		randomGraph(1, 0, 1),
		randomGraph(50, 30, 2),   // sparse, disconnected
		randomGraph(120, 700, 3), // dense-ish
		randomGraph(200, 90, 4),  // many isolated vertices
		graph.Star(64),
		graph.Path(40),
		graph.Complete(30),
	}
	for gi, g := range cases {
		n := g.NumVertices()
		for _, src := range []graph.V{0, graph.V(n / 2), graph.V(n - 1)} {
			ws := traverse.NewWorkspace(n)
			levelBFS(g, ws, src)
			checkDistances(t, fmt.Sprintf("graph %d src %d", gi, src), ws, bfs.Distances(g, src))
		}
	}
}

func TestExpanderReuseAcrossTraversals(t *testing.T) {
	// One workspace serving many traversals must not leak visited state,
	// including after a traversal filled the touched log and the reset
	// that followed cleared the whole bitmap.
	g := randomGraph(150, 800, 7)
	n := g.NumVertices()
	ws := traverse.NewWorkspace(n)
	for rep := 0; rep < 10; rep++ {
		src := graph.V((rep * 37) % n)
		levelBFS(g, ws, src)
		checkDistances(t, fmt.Sprintf("rep %d", rep), ws, bfs.Distances(g, src))
	}
}

// multiDistances runs MultiBFS over the roots and returns one distance
// array per root, reconstructed from the settle callbacks.
func multiDistances(t *testing.T, g *graph.Graph, roots []graph.V, alpha int64) [][]int32 {
	t.Helper()
	n := g.NumVertices()
	mb := traverse.NewMultiBFS(n)
	traverse.SetAlpha(mb, alpha)
	dist := make([][]int32, len(roots))
	for i, r := range roots {
		dist[i] = make([]int32, n)
		for v := range dist[i] {
			dist[i][v] = traverse.Infinity
		}
		dist[i][r] = 0
	}
	err := mb.Run(g, nil, nil, roots, 1<<30, func(v graph.V, depth int32, newL, newN uint64) {
		for w := newL | newN; w != 0; w &= w - 1 {
			i := trailing(w)
			if dist[i][v] != traverse.Infinity {
				t.Fatalf("root %d settled vertex %d twice", i, v)
			}
			dist[i][v] = depth
		}
	})
	if err != nil {
		t.Fatalf("MultiBFS: %v", err)
	}
	return dist
}

func trailing(w uint64) int {
	i := 0
	for w&1 == 0 {
		w >>= 1
		i++
	}
	return i
}

func TestMultiBFSMatchesPerSourceBFS(t *testing.T) {
	for _, tc := range []struct {
		n, m  int
		seed  int64
		roots int
	}{
		{10, 4, 11, 1},  // tiny, disconnected
		{80, 50, 12, 7}, // sparse, disconnected
		{100, 600, 13, 20},
		{200, 1500, 14, 64}, // full 64-way batch
		{64, 64, 15, 64},    // as many roots as vertices allows
	} {
		g := randomGraph(tc.n, tc.m, tc.seed)
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(tc.seed * 31))
		seen := map[graph.V]bool{}
		var roots []graph.V
		for len(roots) < tc.roots && len(roots) < n {
			r := graph.V(rng.Intn(n))
			if !seen[r] {
				seen[r] = true
				roots = append(roots, r)
			}
		}
		for _, alpha := range []int64{traverse.DefaultAlpha, 0, -1} {
			dist := multiDistances(t, g, roots, alpha)
			for i, r := range roots {
				want := bfs.Distances(g, r)
				for v := 0; v < n; v++ {
					if dist[i][v] != want[v] {
						t.Fatalf("n=%d alpha=%d root %d: dist[%d] = %d, want %d",
							tc.n, alpha, r, v, dist[i][v], want[v])
					}
				}
			}
		}
	}
}

func TestMultiBFSRejectsBadInput(t *testing.T) {
	g := graph.Path(5)
	mb := traverse.NewMultiBFS(5)
	roots := make([]graph.V, 65)
	for i := range roots {
		roots[i] = graph.V(i % 5)
	}
	if err := mb.Run(g, nil, nil, roots, 100, func(graph.V, int32, uint64, uint64) {}); err == nil {
		t.Fatal("65 roots accepted")
	}
	if err := mb.Run(g, nil, nil, []graph.V{1, 1}, 100, func(graph.V, int32, uint64, uint64) {}); err == nil {
		t.Fatal("duplicate roots accepted")
	}
	if err := mb.Run(graph.Path(6), nil, nil, []graph.V{0}, 100, func(graph.V, int32, uint64, uint64) {}); err == nil {
		t.Fatal("mis-sized graph accepted")
	}
}

func TestMultiBFSDepthLimitAndReuse(t *testing.T) {
	g := graph.Path(50)
	mb := traverse.NewMultiBFS(50)
	err := mb.Run(g, nil, nil, []graph.V{0}, 10, func(graph.V, int32, uint64, uint64) {})
	if err != traverse.ErrTooDeep {
		t.Fatalf("depth-limited run: %v, want ErrTooDeep", err)
	}
	// The engine must be reusable after the error.
	dist := multiDistances(t, g, []graph.V{0}, traverse.DefaultAlpha)
	for v := 0; v < 50; v++ {
		if dist[0][v] != int32(v) {
			t.Fatalf("after error: dist[%d] = %d", v, dist[0][v])
		}
	}
}

func TestMultiBFSDeterministicAcrossModes(t *testing.T) {
	// Distances aside, the (vertex, depth, newL, newN) settle stream must
	// carry identical per-bit assignments whichever direction ran — only
	// the order may change. Compare as sets.
	g := randomGraph(120, 900, 21)
	n := g.NumVertices()
	roots := []graph.V{0, 1, 2, 3, 4, 5, 6, 7}
	type key struct {
		v     graph.V
		depth int32
	}
	collect := func(alpha int64) map[key][2]uint64 {
		mb := traverse.NewMultiBFS(n)
		traverse.SetAlpha(mb, alpha)
		out := map[key][2]uint64{}
		if err := mb.Run(g, nil, nil, roots, 1<<30, func(v graph.V, depth int32, newL, newN uint64) {
			k := key{v, depth}
			cur := out[k]
			out[k] = [2]uint64{cur[0] | newL, cur[1] | newN}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	auto := collect(traverse.DefaultAlpha)
	td := collect(0)
	bu := collect(-1)
	if len(auto) != len(td) || len(bu) != len(td) {
		t.Fatalf("settle-event counts differ: auto=%d td=%d bu=%d", len(auto), len(td), len(bu))
	}
	for k, want := range td {
		if auto[k] != want {
			t.Fatalf("auto settle %v = %v, want %v", k, auto[k], want)
		}
		if bu[k] != want {
			t.Fatalf("bottom-up settle %v = %v, want %v", k, bu[k], want)
		}
	}
}

func ExampleMultiBFS() {
	// Two sources on a path: bit 0 from vertex 0, bit 1 from vertex 4.
	// Each vertex is reached by both sources except the roots themselves
	// (a root is only ever reached by the opposite source).
	g := graph.Path(5)
	mb := traverse.NewMultiBFS(5)
	reached := make([]int, 5)
	_ = mb.Run(g, nil, nil, []graph.V{0, 4}, 100, func(v graph.V, depth int32, newL, newN uint64) {
		reached[v] += mbits.OnesCount64(newL | newN)
	})
	fmt.Println(reached)
	// Output: [1 2 2 2 1]
}
