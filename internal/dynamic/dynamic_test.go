package dynamic

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// checkAgainstFresh verifies the incrementally maintained state equals a
// from-scratch static build over the materialised graph: label matrix,
// meta-graph (σ, APSP) and every Δ list, bit for bit.
func checkAgainstFresh(t *testing.T, d *Index) {
	t.Helper()
	g := d.CurrentGraph().Materialize()
	fresh, err := core.Build(g, core.Options{Landmarks: d.Landmarks(), Parallelism: 1})
	if err != nil {
		t.Fatalf("fresh build failed: %v", err)
	}
	cur := d.CurrentIndex()
	n := g.NumVertices()
	R := len(d.Landmarks())
	for r := 0; r < R; r++ {
		for v := 0; v < n; v++ {
			cd, cok := cur.LabelEntry(graph.V(v), r)
			fd, fok := fresh.LabelEntry(graph.V(v), r)
			if cok != fok || cd != fd {
				t.Fatalf("label (v=%d, rank=%d): dynamic (%d,%v) vs fresh (%d,%v)", v, r, cd, cok, fd, fok)
			}
		}
	}
	for i := 0; i < R; i++ {
		for j := 0; j < R; j++ {
			cw, cok := cur.MetaEdgeWeight(i, j)
			fw, fok := fresh.MetaEdgeWeight(i, j)
			if cok != fok || cw != fw {
				t.Fatalf("sigma (%d,%d): dynamic (%d,%v) vs fresh (%d,%v)", i, j, cw, cok, fw, fok)
			}
			if cur.MetaDist(i, j) != fresh.MetaDist(i, j) {
				t.Fatalf("meta APSP (%d,%d): %d vs %d", i, j, cur.MetaDist(i, j), fresh.MetaDist(i, j))
			}
		}
	}
	cm, fm := cur.MetaEdges(), fresh.MetaEdges()
	if len(cm) != len(fm) {
		t.Fatalf("meta edge count: %d vs %d", len(cm), len(fm))
	}
	for k := range cm {
		if cm[k] != fm[k] {
			t.Fatalf("meta edge %d: %v vs %v", k, cm[k], fm[k])
		}
		cd, fd := cur.Delta(k), fresh.Delta(k)
		if len(cd) != len(fd) {
			t.Fatalf("delta %d (%v): %d edges vs %d\n dyn: %v\n fresh: %v", k, cm[k], len(cd), len(fd), cd, fd)
		}
		for i := range cd {
			if cd[i] != fd[i] {
				t.Fatalf("delta %d edge %d: %v vs %v", k, i, cd[i], fd[i])
			}
		}
	}
	// Column distance arrays against plain BFS.
	snap := d.cur.Load()
	for r, root := range d.Landmarks() {
		want := bfs.Distances(g, root)
		for v := 0; v < n; v++ {
			got := snap.dist[r][v]
			w := want[v]
			if w == bfs.Infinity {
				w = graph.InfDist
			}
			if got != w {
				t.Fatalf("dist (v=%d, rank=%d): %d vs %d", v, r, got, w)
			}
		}
	}
}

// checkQueries compares a handful of query answers against the oracle on
// the materialised graph.
func checkQueries(t *testing.T, d *Index, rng *rand.Rand, count int) {
	t.Helper()
	g := d.CurrentGraph().Materialize()
	n := g.NumVertices()
	for i := 0; i < count; i++ {
		u := graph.V(rng.Intn(n))
		v := graph.V(rng.Intn(n))
		got := d.Query(u, v)
		want := bfs.OracleSPG(g, u, v)
		if !got.Equal(want) {
			t.Fatalf("query (%d,%d): dist %d vs %d\n got: %v\n want: %v", u, v, got.Dist, want.Dist, got, want)
		}
	}
}

// randomMutableGraph builds a connected-ish random graph and returns it
// with a pool of candidate edges for inserts.
func randomMutableGraph(n int, extra int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.V(v), graph.V(rng.Intn(v)))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.V(u), graph.V(v))
		}
	}
	return b.MustBuild()
}

func pickLandmarks(n, k int, rng *rand.Rand) []graph.V {
	perm := rng.Perm(n)
	ls := make([]graph.V, k)
	for i := range ls {
		ls[i] = graph.V(perm[i])
	}
	return ls
}

// applyRandomOp applies one random insert or delete and returns whether
// the graph changed.
func applyRandomOp(t *testing.T, d *Index, rng *rand.Rand) bool {
	t.Helper()
	n := d.NumVertices()
	u := graph.V(rng.Intn(n))
	v := graph.V(rng.Intn(n))
	if u == v {
		return false
	}
	var changed bool
	var err error
	if d.HasEdge(u, v) {
		changed, err = d.RemoveEdge(u, v)
	} else {
		changed, err = d.AddEdge(u, v)
	}
	if err != nil {
		t.Fatalf("update {%d,%d}: %v", u, v, err)
	}
	return changed
}

// TestIncrementalMatchesFreshBuild is the heavyweight state check: after
// every single update the whole maintained state must equal a fresh
// static build. Runs across several graph shapes, landmark counts and
// repair budgets (budget 1 forces the re-BFS fallback on almost every
// deletion, budget MaxInt forces the incremental path).
func TestIncrementalMatchesFreshBuild(t *testing.T) {
	budgets := []int{1, 8, 1 << 30}
	for _, budget := range budgets {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(budget)*1000 + 7))
			for trial := 0; trial < 12; trial++ {
				n := 20 + rng.Intn(60)
				g := randomMutableGraph(n, n/2+rng.Intn(2*n), rng)
				R := 1 + rng.Intn(5)
				d, err := New(g, pickLandmarks(n, R, rng), Options{
					RepairBudget:    budget,
					CompactFraction: -1, // deterministic: no async rebuild
				})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstFresh(t, d) // epoch 0: the full build, before any repair
				for op := 0; op < 25; op++ {
					if applyRandomOp(t, d, rng) {
						checkAgainstFresh(t, d)
					}
				}
				checkQueries(t, d, rng, 20)
			}
		})
	}
}

// TestDisconnection exercises updates that cut vertices off entirely and
// reconnect them.
func TestDisconnection(t *testing.T) {
	// Path 0-1-2-3-4 with a landmark at each end.
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}, {U: 3, W: 4}})
	d, err := New(g, []graph.V{0, 4}, Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	steps := [][3]int{ // u, v, insert(1)/delete(0)
		{1, 2, 0}, // split into {0,1} and {2,3,4}
		{2, 3, 0}, // isolate 2
		{0, 2, 1}, // reattach 2 to the left side
		{1, 2, 1},
		{2, 3, 1}, // fully reconnected, plus a chord
	}
	rng := rand.New(rand.NewSource(9))
	for _, s := range steps {
		var err error
		if s[2] == 1 {
			_, err = d.AddEdge(graph.V(s[0]), graph.V(s[1]))
		} else {
			_, err = d.RemoveEdge(graph.V(s[0]), graph.V(s[1]))
		}
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, d)
		checkQueries(t, d, rng, 10)
	}
}

// TestLandmarkIncidentUpdates hammers edges incident to landmarks, the
// trickiest case for σ and Δ maintenance.
func TestLandmarkIncidentUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 16 + rng.Intn(20)
		g := randomMutableGraph(n, n, rng)
		R := 2 + rng.Intn(3)
		lands := pickLandmarks(n, R, rng)
		d, err := New(g, lands, Options{CompactFraction: -1})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 30; op++ {
			u := lands[rng.Intn(R)]
			v := graph.V(rng.Intn(n))
			if u == v {
				continue
			}
			var changed bool
			if d.HasEdge(u, v) {
				changed, err = d.RemoveEdge(u, v)
			} else {
				changed, err = d.AddEdge(u, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			if changed {
				checkAgainstFresh(t, d)
			}
		}
	}
}

// TestIdempotentAndInvalidUpdates pins the no-op and validation
// behaviour.
func TestIdempotentAndInvalidUpdates(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}})
	d, err := New(g, []graph.V{1}, Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	e0 := d.Epoch()
	if ch, err := d.AddEdge(0, 1); err != nil || ch {
		t.Fatalf("re-adding existing edge: changed=%v err=%v", ch, err)
	}
	if ch, err := d.RemoveEdge(0, 3); err != nil || ch {
		t.Fatalf("removing absent edge: changed=%v err=%v", ch, err)
	}
	if d.Epoch() != e0 {
		t.Fatal("no-ops must not publish a new epoch")
	}
	if _, err := d.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := d.AddEdge(-1, 2); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if ch, err := d.AddEdge(0, 3); err != nil || !ch {
		t.Fatalf("valid insert: changed=%v err=%v", ch, err)
	}
	if d.Epoch() != e0+1 {
		t.Fatal("applied update must advance the epoch")
	}
}

// TestCompaction checks that synchronous and automatic compaction
// preserve answers and reset overlay pressure.
func TestCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomMutableGraph(60, 80, rng)
	d, err := New(g, pickLandmarks(60, 4, rng), Options{CompactFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 120; op++ {
		applyRandomOp(t, d, rng)
	}
	d.WaitCompaction()
	if d.Stats().Compactions == 0 {
		t.Fatal("auto-compaction never triggered despite heavy churn")
	}
	checkAgainstFresh(t, d)
	checkQueries(t, d, rng, 25)

	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := d.CurrentGraph().Overridden(); got != 0 {
		t.Fatalf("overlay not compacted: %d overridden vertices", got)
	}
	checkAgainstFresh(t, d)
}

// compactionRefuser logs every update and refuses every compaction, so
// each background compaction fails at its publish.
type compactionRefuser struct{}

func (compactionRefuser) LogUpdate(uint64, graph.V, graph.V, bool) error { return nil }
func (compactionRefuser) LogCompaction(uint64) error {
	return errors.New("compaction record refused")
}

// TestFailedCompactionLeavesATrace: a background compaction that fails
// publishes nothing, journals dynamic/compact_failed, and keeps its
// dynamic.compact root trace, errored and naming the failed stage, even
// though it ran far below the tracer's slow threshold.
func TestFailedCompactionLeavesATrace(t *testing.T) {
	failedBefore := len(compactFailures(""))
	rng := rand.New(rand.NewSource(77))
	g := randomMutableGraph(60, 80, rng)
	d, err := New(g, pickLandmarks(60, 4, rng), Options{CompactFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogger(compactionRefuser{})
	for op := 0; op < 120; op++ {
		applyRandomOp(t, d, rng)
	}
	d.WaitCompaction()
	if n := d.Stats().Compactions; n != 0 {
		t.Fatalf("%d compactions published past a refusing log", n)
	}
	failed := compactFailures("publish")
	if len(failed) <= failedBefore {
		t.Fatal("no dynamic/compact_failed event for a failed compaction")
	}
	traces := 0
	for _, st := range obs.DefaultTracer.Store().Recent(0, 0, true) {
		root := st.Spans[0]
		msg, _ := root.Attrs["error"].(string)
		if st.Root == "dynamic.compact" && root.Error &&
			root.Attrs["stage"] == "publish" && strings.HasSuffix(msg, "compaction record refused") {
			traces++
		}
	}
	if traces == 0 {
		t.Fatal("no errored dynamic.compact trace retained for a failed compaction")
	}
	t.Logf("%d failed compactions journaled, %d errored traces retained", len(failed)-failedBefore, traces)
	checkAgainstFresh(t, d)
}

// compactFailures returns the journaled dynamic/compact_failed events of
// one stage ("" for any).
func compactFailures(stage string) []*obs.Event {
	var out []*obs.Event
	for _, ev := range obs.DefaultJournal.Recent(0, obs.LevelDebug, "dynamic") {
		if ev.Event == "compact_failed" && (stage == "" || ev.View().Attrs["stage"] == stage) {
			out = append(out, ev)
		}
	}
	return out
}

// TestCompactionReplaysPendingUpdates plays an asynchronous compaction
// out step by step: the rebuild starts from one snapshot, updates land
// while it runs (and are queued), and the compacted state is the rebuild
// with those updates replayed onto it — through the writer's own
// repairer, under the writer's lock. The published state must equal a
// fresh build of the graph as it is then, at both repair budgets.
func TestCompactionReplaysPendingUpdates(t *testing.T) {
	for _, budget := range []int{1, 1 << 30} {
		rng := rand.New(rand.NewSource(int64(budget) + 5))
		g := randomMutableGraph(80, 100, rng)
		d, err := New(g, pickLandmarks(80, 4, rng), Options{RepairBudget: budget, CompactFraction: -1})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 20; op++ {
			applyRandomOp(t, d, rng)
		}
		// What maybeCompactLocked does when the overlay has drifted.
		d.mu.Lock()
		d.rebuilding = true
		d.compactWG.Add(1)
		from := d.cur.Load()
		d.mu.Unlock()

		applied := 0
		for op := 0; op < 30; op++ {
			if applyRandomOp(t, d, rng) {
				applied++
			}
		}
		if len(d.pending) != applied || applied == 0 {
			t.Fatalf("%d updates applied during the rebuild, %d queued", applied, len(d.pending))
		}
		before := d.Epoch()
		d.compact(from)
		if d.Epoch() != before+1 || d.Stats().Compactions != 1 || len(d.pending) != 0 || d.rebuilding {
			t.Fatalf("compaction did not publish: epoch %d → %d, %+v", before, d.Epoch(), d.Stats())
		}
		if got := d.CurrentGraph().Overridden(); got == 0 || got > 2*applied {
			t.Fatalf("%d vertices overridden after a compaction that replayed %d updates", got, applied)
		}
		checkAgainstFresh(t, d)
		checkQueries(t, d, rng, 25)
		// And it goes on repairing from there.
		for op := 0; op < 10; op++ {
			if applyRandomOp(t, d, rng) {
				checkAgainstFresh(t, d)
			}
		}
	}
}

// TestDynamicFullBuildIsCoreBuild holds the dynamic index's full build
// to the static one at serving size (the YT analog at scale 1): labels,
// σ, the meta-edges and every Δ list of the index New publishes equal
// core.Build's on the same landmarks, and the distance columns the sweep
// writes on the side equal a plain BFS from every landmark.
func TestDynamicFullBuildIsCoreBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 40 000-vertex index twice")
	}
	spec, err := datasets.ByKey("YT")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(1)
	d, err := New(g, g.TopDegreeVertices(20), Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, d)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, d)
}

// TestSnapshotIsolation verifies a reader's snapshot is unaffected by
// later updates.
func TestSnapshotIsolation(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 3}})
	d, err := New(g, []graph.V{1}, Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := d.CurrentIndex()
	srBefore := core.NewSearcher(before)
	if _, err := d.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := srBefore.Query(0, 3); got.Dist != 3 {
		t.Fatalf("old snapshot changed: dist 0-3 = %d, want 3", got.Dist)
	}
	if got := d.Query(0, 3); got.Dist != graph.InfDist {
		t.Fatalf("new snapshot wrong: dist 0-3 = %d, want disconnected", got.Dist)
	}
}

// TestOverlay pins the copy-on-write graph view.
func TestOverlay(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 3, W: 4}})
	o := NewOverlay(g)
	o2 := o.WithEdge(2, 3)
	if o.HasEdge(2, 3) || !o2.HasEdge(2, 3) {
		t.Fatal("WithEdge leaked into the receiver")
	}
	if o.NumEdges() != 3 || o2.NumEdges() != 4 {
		t.Fatalf("edge counts: %d, %d", o.NumEdges(), o2.NumEdges())
	}
	o3 := o2.WithoutEdge(0, 1)
	if !o2.HasEdge(0, 1) || o3.HasEdge(0, 1) {
		t.Fatal("WithoutEdge leaked into the receiver")
	}
	m := o3.Materialize()
	if m.NumEdges() != 3 || !m.HasEdge(2, 3) || m.HasEdge(0, 1) {
		t.Fatal("materialised graph wrong")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Neighbour lists stay sorted through churn.
	rng := rand.New(rand.NewSource(5))
	cur := o
	for i := 0; i < 200; i++ {
		u, v := graph.V(rng.Intn(5)), graph.V(rng.Intn(5))
		if u == v {
			continue
		}
		if cur.HasEdge(u, v) {
			cur = cur.WithoutEdge(u, v)
		} else {
			cur = cur.WithEdge(u, v)
		}
	}
	if err := cur.Materialize().Validate(); err != nil {
		t.Fatal(err)
	}
}
