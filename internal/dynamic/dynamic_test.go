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

// TestMaintainedDeltaIsLandmarkAvoidingSPG holds every Δ list of every
// epoch to the oracle: after each update of a seeded stream, Δ(a→b) is
// the SPG between a and b over the updated graph without the other
// landmarks. TestIncrementalMatchesFreshBuild compares the maintained
// lists with a fresh build's, which the same label walk reads, so it
// checks only which lists an update walks again; this checks what the
// walk reads. The graphs are an Erdős–Rényi graph, and a path and a
// cycle whose landmarks lie far apart, where an update adds or removes a
// chord over two or three hops: σ stays long, every distance within the
// 253 hops a label holds, and overlapping chords give Δ lists of several
// paths.
func TestMaintainedDeltaIsLandmarkAvoidingSPG(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		lands  []graph.V // nil: six drawn from the stream's seed
		chords bool      // an update joins vertices two or three ids apart, else any two
	}{
		{"er150", graph.ErdosRenyi(150, 330, 17), nil, false},
		{"path200", graph.Path(200), []graph.V{0, 90, 199}, true},
		{"cycle251", graph.Cycle(251), []graph.V{0, 80, 170}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			n := tc.g.NumVertices()
			lands := tc.lands
			if lands == nil {
				lands = pickLandmarks(n, 6, rng)
			}
			d, err := New(tc.g, lands, Options{CompactFraction: -1})
			if err != nil {
				t.Fatal(err)
			}
			checkDeltaAgainstOracle(t, d)
			for op := 0; op < 60; op++ {
				u := graph.V(rng.Intn(n))
				v := graph.V(rng.Intn(n))
				if tc.chords {
					v = u + graph.V(2+rng.Intn(2))
				}
				if u == v || int(v) >= n {
					continue
				}
				var changed bool
				if d.HasEdge(u, v) {
					changed, err = d.RemoveEdge(u, v)
				} else {
					changed, err = d.AddEdge(u, v)
				}
				if err != nil {
					t.Fatalf("update {%d,%d}: %v", u, v, err)
				}
				if changed {
					checkDeltaAgainstOracle(t, d)
				}
			}
			if st := d.Stats(); st.DeltaRecomputes == 0 {
				t.Fatalf("%d updates walked no Δ list again", st.Inserts+st.Deletes)
			} else {
				t.Logf("%d updates, %d Δ lists walked again", st.Inserts+st.Deletes, st.DeltaRecomputes)
			}
		})
	}
}

// checkDeltaAgainstOracle compares every Δ list of the current epoch with
// bfs.OracleSPG between its landmarks over the materialised graph
// without the other landmarks, edge set and edge count.
func checkDeltaAgainstOracle(t *testing.T, d *Index) {
	t.Helper()
	g := d.CurrentGraph().Materialize()
	ix := d.CurrentIndex()
	for k, me := range ix.MetaEdges() {
		a, b := ix.Landmarks()[me[0]], ix.Landmarks()[me[1]]
		keep := func(v graph.V) bool { return v == a || v == b || !ix.IsLandmark(v) }
		want := bfs.OracleSPG(g.InducedSubgraph(keep), a, b)
		if want.Dist != me[2] {
			t.Fatalf("epoch %d: meta-edge %d–%d: avoiding distance %d, σ %d", d.Epoch(), a, b, want.Dist, me[2])
		}
		got := graph.NewSPG(a, b)
		got.Dist = want.Dist
		for _, e := range ix.Delta(k) {
			got.AddEdge(e.U, e.W)
		}
		if len(ix.Delta(k)) != want.NumEdges() || !got.Equal(want) {
			t.Fatalf("epoch %d: Δ(%d–%d) has %d edges %v, want %d: %v", d.Epoch(), a, b, len(ix.Delta(k)), got, want.NumEdges(), want)
		}
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
// TestDirectedGraphRefused: New refuses a directed graph, even a
// symmetric one, whose updates it could not orient.
func TestDirectedGraphRefused(t *testing.T) {
	for _, g := range []*graph.Graph{graph.DirectedScaleFree(40, 2, 3), graph.AsDirected(graph.Cycle(6))} {
		if d, err := New(g, []graph.V{0}, Options{}); !errors.Is(err, ErrDirected) || d != nil {
			t.Fatalf("New over a directed graph: %v", err)
		}
	}
}

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

// TestCompaction checks that compaction is a fold. The write that takes
// the overlay past the threshold returns with it folded and its own
// epoch in the result; Compact publishes the next epoch over the same
// label and distance columns; and every state equals a fresh build.
func TestCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomMutableGraph(60, 80, rng)
	d, err := New(g, pickLandmarks(60, 4, rng), Options{CompactFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 120; op++ {
		u, w := graph.V(rng.Intn(60)), graph.V(rng.Intn(60))
		if u == w {
			continue
		}
		before := d.Stats().Compactions
		res, err := d.ApplyEdge(u, w, !d.HasEdge(u, w))
		if err != nil {
			t.Fatal(err)
		}
		if d.Stats().Compactions == before {
			continue
		}
		if got := d.CurrentGraph().Overridden(); got != 0 {
			t.Fatalf("op %d compacted and left %d overridden vertices", op, got)
		}
		if res.Epoch+1 != d.Epoch() {
			t.Fatalf("op %d compacted: write reported epoch %d, index at %d", op, res.Epoch, d.Epoch())
		}
		checkAgainstFresh(t, d)
	}
	if d.Stats().Compactions == 0 {
		t.Fatal("auto-compaction never triggered despite heavy churn")
	}
	checkAgainstFresh(t, d)
	checkQueries(t, d, rng, 25)

	for d.CurrentGraph().Overridden() == 0 {
		applyRandomOp(t, d, rng)
	}
	prev := d.cur.Load()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	cur := d.cur.Load()
	if got := cur.overlay.Overridden(); got != 0 || cur.epoch != prev.epoch+1 {
		t.Fatalf("Compact: %d overridden vertices, epoch %d → %d", got, prev.epoch, cur.epoch)
	}
	for r := range prev.lab {
		if &cur.lab[r][0] != &prev.lab[r][0] || &cur.dist[r][0] != &prev.dist[r][0] {
			t.Fatalf("Compact relabelled landmark %d: its columns are new slices", r)
		}
	}
	checkAgainstFresh(t, d)
}

// compactionRefuser logs every update and refuses every compaction, so
// each compaction fails at its publish.
type compactionRefuser struct{}

func (compactionRefuser) Log(rec Record) error {
	if rec.Op == OpCompact {
		return errors.New("compaction record refused")
	}
	return nil
}

// TestFailedCompactionLeavesATrace: an automatic compaction that fails
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
