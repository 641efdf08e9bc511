// Tests of MultiBFS's two word widths: a sweep of at most 32 sources
// runs in uint32 words, a wider one in uint64 words, and the settle
// payloads must not depend on which. The scalar QL/QN reference they are
// also held to is core's (internal/core, TestMultiBFSWidthsMatchScalar).
package traverse_test

import (
	"runtime"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// spreadRoots returns k distinct vertices spread over [0, n) from off,
// and a landmark index marking every third of them.
func spreadRoots(n, k, off int) ([]graph.V, []int16) {
	landIdx := make([]int16, n)
	for i := range landIdx {
		landIdx[i] = -1
	}
	roots := make([]graph.V, k)
	for i := range roots {
		roots[i] = graph.V((off + i*n/k) % n)
		if i%3 == 0 {
			landIdx[roots[i]] = int16(i)
		}
	}
	return roots, landIdx
}

func samePayloads(t *testing.T, what string, got, want map[settleKey][2]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d settle events, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: settle %v = %v, want %v", what, k, got[k], w)
		}
	}
}

// payloadsAreBFS checks that the sources' settles, QL and QN bits
// alike, reach every vertex at its BFS distance from the source's root.
func payloadsAreBFS(t *testing.T, g *graph.Graph, roots []graph.V, got map[settleKey][2]uint64) {
	t.Helper()
	for i, r := range roots {
		want := bfs.Distances(g, r)
		reached := 1 // the root
		for k, p := range got {
			if (p[0]|p[1])&(1<<uint(i)) == 0 {
				continue
			}
			if want[k.v] != k.depth {
				t.Fatalf("root %d settled vertex %d at depth %d, want %d", r, k.v, k.depth, want[k.v])
			}
			reached++
		}
		for _, d := range want {
			if d != traverse.Infinity {
				reached--
			}
		}
		if reached != 0 {
			t.Fatalf("root %d: %d vertices more settled than reachable", r, reached)
		}
	}
}

// TestMultiBFSNarrowMatchesWide runs sweeps of at most 32 sources on a
// new engine, in uint32 words, and on an engine that has swept 33
// sources, in uint64 words: every direction mode, one worker and four,
// over a graph of several chunks with a ragged last one. Both are plain
// BFS layerings of their roots; the graph is sparse enough (mean degree
// ~4) that a sweep returns top-down after its bottom-up levels, so a
// vertex lost from a packed level's list shows.
func TestMultiBFSNarrowMatchesWide(t *testing.T) {
	g := randomGraph(3*1024+37, 6000, 71)
	n := g.NumVertices()
	for _, k := range []int{1, 20, 32} {
		roots, landIdx := spreadRoots(n, k, 5)
		for _, alpha := range []int64{traverse.DefaultAlpha, 0, -1} {
			for _, workers := range []int{1, 4} {
				want := collectMulti(t, g, landIdx, roots, alpha, workers)
				payloadsAreBFS(t, g, roots, want)
				mb := traverse.NewMultiBFS(n)
				traverse.SetAlpha(mb, alpha)
				traverse.SetPoolFloor(mb, 1)
				mb.Parallelism = workers
				wideRoots, _ := spreadRoots(n, 33, 1)
				settlePayloads(t, mb, g, nil, wideRoots)
				got := settlePayloads(t, mb, g, landIdx, roots)
				samePayloads(t, "uint64 vs uint32 words", got, want)
			}
		}
	}
}

// TestMultiBFSReuseAcrossWidths runs one engine at 20, 64 and again 20
// sources (the last in the uint64 words the second allocated): each
// sweep must settle what a fresh engine settles.
func TestMultiBFSReuseAcrossWidths(t *testing.T) {
	g := randomGraph(2*1024+11, 7000, 72)
	n := g.NumVertices()
	mb := traverse.NewMultiBFS(n)
	traverse.SetPoolFloor(mb, 1)
	mb.Parallelism = 4
	for i, k := range []int{20, 64, 20} {
		roots, landIdx := spreadRoots(n, k, 3*i)
		want := collectMulti(t, g, landIdx, roots, traverse.DefaultAlpha, 1)
		samePayloads(t, "reused engine", settlePayloads(t, mb, g, landIdx, roots), want)
	}
}

// TestMultiBFSSweepBytes holds a new engine's first 20-source sweep to
// what it needs: 20 bytes of words per vertex (five uint32), the two
// level lists at their bound of |V|/β + 64 slots of 4 bytes, each of the
// seven arrays rounded up to the heap's 8 KB pages, plus a count per
// chunk; a few kilobytes of closures and headers are allowed besides.
// A 64-source sweep then adds only its 40 bytes of uint64 words per
// vertex, and a 20-source sweep after it runs in them, adding nothing;
// nor does a top-down sweep whose middle levels overflow the lists.
func TestMultiBFSSweepBytes(t *testing.T) {
	spec, err := datasets.ByKey("YT")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(1)
	n := g.NumVertices()
	roots := g.TopDegreeVertices(64)
	landIdx := make([]int16, n)
	for i := range landIdx {
		landIdx[i] = -1
	}
	for i, r := range roots {
		landIdx[r] = int16(i)
	}
	pages := func(b int) int { return (b + 8<<10 - 1) &^ (8<<10 - 1) }
	const slack = 16 << 10
	for _, workers := range []int{1, 4} {
		mb := traverse.NewMultiBFS(n)
		mb.Parallelism = workers
		for _, step := range []struct {
			sources int
			alpha   int64
			bound   int
		}{
			{20, traverse.DefaultAlpha, 5*pages(4*n) + 2*pages(4*traverse.ListCap(n)) + 8*(n/1024+1) + slack},
			{64, traverse.DefaultAlpha, 5*pages(8*n) + slack},
			{20, traverse.DefaultAlpha, slack},
			{20, 0, slack},
		} {
			traverse.SetAlpha(mb, step.alpha)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := mb.Run(g, nil, landIdx, roots[:step.sources], 1<<30, func(graph.V, int32, uint64, uint64) {})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(step.bound) {
				t.Fatalf("workers=%d alpha=%d: a %d-source sweep over %d vertices allocated %d bytes (%.1f per vertex), want at most %d",
					workers, step.alpha, step.sources, n, got, float64(got)/float64(n), step.bound)
			}
		}
		runtime.KeepAlive(mb)
	}
}

// levelSizes counts a sweep's settles per depth: the size of each level.
func levelSizes(got map[settleKey][2]uint64) map[int32]int {
	sizes := map[int32]int{}
	for k := range got {
		sizes[k.depth]++
	}
	return sizes
}

// TestMultiBFSDenseLevels runs sweeps whose middle levels hold more
// vertices than a level list: all top-down, where a frontier is then
// read off its words and a level is settled by a scan of them, and with
// the direction switch, where a bottom-up level too large to list hands
// its successor a frontier held only in words. Each must settle what
// bottom-up-only sweeps settle, which list nothing they do not hold.
func TestMultiBFSDenseLevels(t *testing.T) {
	g := randomGraph(4*1024+5, 16000, 73)
	n := g.NumVertices()
	roots, landIdx := spreadRoots(n, 20, 2)
	want := collectMulti(t, g, landIdx, roots, -1, 1)
	payloadsAreBFS(t, g, roots, want)
	dense := false
	for _, size := range levelSizes(want) {
		dense = dense || size > traverse.ListCap(n)
	}
	if !dense {
		t.Fatalf("no level of the sweep holds more than %d vertices", traverse.ListCap(n))
	}
	for _, alpha := range []int64{traverse.DefaultAlpha, 0} {
		for _, workers := range []int{1, 4} {
			samePayloads(t, "dense levels", collectMulti(t, g, landIdx, roots, alpha, workers), want)
		}
	}
}

// TestMultiBFSTooDeepOnDenseLevel stops a sweep at the depth of its
// largest level, a level held only in its words, and reuses the engine:
// its next sweep must settle what a fresh engine settles.
func TestMultiBFSTooDeepOnDenseLevel(t *testing.T) {
	g := randomGraph(4*1024+5, 16000, 74)
	n := g.NumVertices()
	roots, landIdx := spreadRoots(n, 20, 4)
	for _, alpha := range []int64{traverse.DefaultAlpha, 0, -1} {
		for _, workers := range []int{1, 4} {
			want := collectMulti(t, g, landIdx, roots, alpha, workers)
			var deepest int32
			sizes := levelSizes(want)
			for d, size := range sizes {
				if size > sizes[deepest] {
					deepest = d
				}
			}
			if sizes[deepest] <= traverse.ListCap(n) {
				t.Fatalf("the largest level holds %d vertices, no more than a list's %d", sizes[deepest], traverse.ListCap(n))
			}
			mb := traverse.NewMultiBFS(n)
			traverse.SetAlpha(mb, alpha)
			traverse.SetPoolFloor(mb, 1)
			mb.Parallelism = workers
			if err := mb.Run(g, nil, landIdx, roots, deepest, func(graph.V, int32, uint64, uint64) {}); err != traverse.ErrTooDeep {
				t.Fatalf("alpha=%d workers=%d: a sweep stopped at depth %d returned %v, want ErrTooDeep", alpha, workers, deepest, err)
			}
			samePayloads(t, "engine reused after ErrTooDeep", settlePayloads(t, mb, g, landIdx, roots), want)
		}
	}
}
