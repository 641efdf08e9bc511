package qbs_test

import (
	"sync"
	"testing"

	"qbs"
	"qbs/internal/graph"
	"qbs/internal/workload"
)

// readPath is the method set core.Reader gives every index kind.
type readPath interface {
	Query(u, v qbs.V) *qbs.SPG
	QueryInto(dst *qbs.SPG, u, v qbs.V) *qbs.SPG
	QueryIntoStats(dst *qbs.SPG, u, v qbs.V) qbs.QueryStats
	QueryWithStats(u, v qbs.V) (*qbs.SPG, qbs.QueryStats)
	Distance(u, v qbs.V) int32
	Sketch(u, v qbs.V) *qbs.Sketch
	QueryBatch(pairs []qbs.Pair, parallelism int) []*qbs.SPG
}

// readerKinds builds one index of each kind with the oracle for the
// graph it answers over. The dynamic one has taken 40 updates, so it
// reads an overlay with overridden rows at a late epoch.
func readerKinds(t *testing.T) []struct {
	name     string
	ix       readPath
	n        int
	directed bool
	oracle   func(u, v qbs.V) *qbs.SPG
} {
	t.Helper()
	g := connectedBA(600, 3, 21)
	dg := graph.DirectedScaleFree(600, 3, 22)
	shadow := newShadow(g)
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 12}, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range workload.Mutations(g, 40, 8) {
		if _, err := di.ApplyEdge(op.U, op.V, op.Kind == workload.OpInsert); err != nil {
			t.Fatal(err)
		}
		shadow.apply(op.U, op.V, op.Kind == workload.OpInsert)
	}
	mat := shadow.materialize()
	return []struct {
		name     string
		ix       readPath
		n        int
		directed bool
		oracle   func(u, v qbs.V) *qbs.SPG
	}{
		{"undirected", qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 12}), g.NumVertices(), false,
			func(u, v qbs.V) *qbs.SPG { return qbs.OracleSPG(g, u, v) }},
		{"directed", qbs.MustBuildIndex(dg, qbs.Options{NumLandmarks: 12}), dg.NumVertices(), true,
			func(u, v qbs.V) *qbs.SPG { return qbs.OracleSPG(dg, u, v) }},
		{"dynamic", di, mat.NumVertices(), false,
			func(u, v qbs.V) *qbs.SPG { return qbs.OracleSPG(mat, u, v) }},
	}
}

// TestOneReadPathUnderEveryIndexKind drives the seven read methods —
// the same ones, core.Reader's, whatever the kind — against the oracle:
// every form of the answer is the oracle's, with the kind's orientation;
// Distance and the stats agree with it; the sketch bounds it; and a
// batch with a pair no index can answer leaves that slot nil and
// completes.
func TestOneReadPathUnderEveryIndexKind(t *testing.T) {
	for _, k := range readerKinds(t) {
		t.Run(k.name, func(t *testing.T) {
			pairs := workload.ZipfPairs(k.n, 120, 1.1, 5)
			batch := make([]qbs.Pair, 0, len(pairs)+1)
			reused := new(qbs.SPG)
			for _, p := range pairs {
				want := k.oracle(p.U, p.V)
				batch = append(batch, qbs.Pair{U: p.U, V: p.V})

				withStats, st := k.ix.QueryWithStats(p.U, p.V)
				for name, got := range map[string]*qbs.SPG{
					"Query":          k.ix.Query(p.U, p.V),
					"QueryInto":      k.ix.QueryInto(new(qbs.SPG), p.U, p.V),
					"QueryWithStats": withStats,
				} {
					if !got.Equal(want) || got.Directed() != k.directed {
						t.Fatalf("%s(%d,%d) = %v (directed %v), want %v", name, p.U, p.V, got, got.Directed(), want)
					}
				}
				// One result reused across pairs, as a serving loop does.
				if st2 := k.ix.QueryIntoStats(reused, p.U, p.V); !reused.Equal(want) || st2.Dist != want.Dist || st.Dist != want.Dist {
					t.Fatalf("QueryIntoStats(%d,%d) = %v, stats %d and %d, want %v", p.U, p.V, reused, st2.Dist, st.Dist, want)
				}
				if d := k.ix.Distance(p.U, p.V); d != want.Dist {
					t.Fatalf("Distance(%d,%d) = %d, want %d", p.U, p.V, d, want.Dist)
				}
				if sk := k.ix.Sketch(p.U, p.V); sk.DTop != st.DTop || sk.DTop < want.Dist {
					t.Fatalf("Sketch(%d,%d).DTop = %d, the search's %d, d = %d", p.U, p.V, sk.DTop, st.DTop, want.Dist)
				}
			}
			poisoned := len(batch) / 2
			batch = append(batch, batch[poisoned])
			batch[poisoned] = qbs.Pair{U: 0, V: qbs.V(k.n + 3)}
			for _, par := range []int{1, 3} {
				out := k.ix.QueryBatch(batch, par)
				if len(out) != len(batch) {
					t.Fatalf("QueryBatch returned %d results for %d pairs", len(out), len(batch))
				}
				for i, got := range out {
					switch {
					case i == poisoned:
						if got != nil {
							t.Fatalf("parallelism %d: the out-of-range pair has an answer: %v", par, got)
						}
					case got == nil || !got.Equal(k.oracle(batch[i].U, batch[i].V)) || got.Directed() != k.directed:
						t.Fatalf("parallelism %d: batch slot %d (%v) = %v", par, i, batch[i], got)
					}
				}
			}
		})
	}
}

// TestDynamicBatchReadsOneEpoch: the reader resolves the index once per
// batch. A writer toggles the edge {a, b} while batches ask for d(a, b)
// hundreds of times each: within one batch every answer is the same —
// the edge was there for all of them or for none — while across batches
// both answers turn up.
func TestDynamicBatchReadsOneEpoch(t *testing.T) {
	const n = 64
	g := graph.Cycle(n)
	a, b := qbs.V(0), qbs.V(n/2)
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 4}, CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for insert := true; ; insert = !insert {
			select {
			case <-done:
				return
			default:
			}
			if _, err := di.ApplyEdge(a, b, insert); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	batch := make([]qbs.Pair, 512)
	for i := range batch {
		batch[i] = qbs.Pair{U: a, V: b}
	}
	batch[100] = qbs.Pair{U: -1, V: b}
	seen := map[int32]int{}
	for round := 0; round < 400 && (round < 50 || len(seen) < 2); round++ {
		out := di.QueryBatch(batch, 4)
		for i, spg := range out {
			if i == 100 {
				if spg != nil {
					t.Fatal("the out-of-range pair has an answer")
				}
				continue
			}
			if spg == nil || spg.Dist != out[0].Dist || (spg.Dist != 1 && spg.Dist != n/2) {
				t.Fatalf("round %d: slot %d answered %v, slot 0 %v: one batch read two epochs", round, i, spg, out[0])
			}
		}
		seen[out[0].Dist]++
	}
	close(done)
	wg.Wait()
	if len(seen) != 2 {
		t.Fatalf("the writer never landed between two batches: distances seen %v", seen)
	}
}
