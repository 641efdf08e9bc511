// Allocation regression tests and benchmarks for the warm query path.
// After the PR 2 arena work, a warmed-up searcher answering into a
// reused SPG performs zero heap allocations per query; these tests pin
// that down so it cannot silently rot.
package qbs_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"qbs"
	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
	"qbs/internal/workload"
)

// allocGraph returns a small hub-ish test graph and sampled pairs.
func allocGraph(tb testing.TB) (*graph.Graph, []workload.Pair) {
	tb.Helper()
	g := connectedBA(800, 3, 42)
	return g, workload.SamplePairs(g, 64, 7)
}

func connectedBA(n, m int, seed int64) *graph.Graph {
	g := graph.BarabasiAlbert(n, m, seed)
	lc, _ := g.LargestComponent()
	return lc
}

// allocCases are the three index kinds under the warm-path alloc gates:
// each builds the engine's index, the public one over the same graph,
// and pairs to ask of either. The dynamic kind's are one and the same —
// the index of the epoch current after a few updates, over an overlay
// with overridden rows — read through the reader all three share.
var allocCases = []struct {
	name  string
	build func(tb testing.TB) (*core.Index, queryIntoer, []workload.Pair)
}{
	{"undirected", func(tb testing.TB) (*core.Index, queryIntoer, []workload.Pair) {
		g, pairs := allocGraph(tb)
		return core.MustBuild(g, core.Options{NumLandmarks: 16}), qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 16}), pairs
	}},
	{"directed", func(tb testing.TB) (*core.Index, queryIntoer, []workload.Pair) {
		ix, pairs := diAllocIndex(tb)
		cix, err := core.BuildDirected(ix.Graph(), core.Options{NumLandmarks: 16})
		if err != nil {
			tb.Fatal(err)
		}
		return cix, ix, pairs
	}},
	{"dynamic", func(tb testing.TB) (*core.Index, queryIntoer, []workload.Pair) {
		g, pairs := allocGraph(tb)
		d, err := dynamic.New(g, g.TopDegreeVertices(16), dynamic.Options{CompactFraction: -1})
		if err != nil {
			tb.Fatal(err)
		}
		for _, op := range workload.Mutations(g, 24, 3) {
			if _, err := d.ApplyEdge(op.U, op.V, op.Kind == workload.OpInsert); err != nil {
				tb.Fatal(err)
			}
		}
		return d.CurrentIndex(), qbs.AdoptDynamic(d), pairs
	}},
}

// passAllocs counts the heap allocations of one warm pass of query over
// pairs. testing.AllocsPerRun truncates its per-run average, so with one
// query per run an allocation made on a few pairs only would read 0; the
// whole pass is the one measured run, and every allocation in it counts.
func passAllocs(pairs []workload.Pair, query func(workload.Pair)) float64 {
	return testing.AllocsPerRun(1, func() {
		for _, p := range pairs {
			query(p)
		}
	})
}

type queryIntoer interface {
	QueryInto(dst *qbs.SPG, u, v qbs.V) *qbs.SPG
	QueryIntoStats(dst *qbs.SPG, u, v qbs.V) qbs.QueryStats
	Distance(u, v qbs.V) int32
	DistanceStats(u, v qbs.V) qbs.QueryStats
}

// TestWarmQueryZeroAllocs asserts the PR 2 acceptance criterion, and PR
// 4's for the directed serving surface: a warm query through the
// reusable-result path allocates nothing — neither in the searcher
// (expansion, sketch, extraction) nor in the result, whose edge buffer
// is recycled at its high-water mark — and neither do Distance and
// DistanceStats.
func TestWarmQueryZeroAllocs(t *testing.T) {
	for _, c := range allocCases {
		t.Run(c.name, func(t *testing.T) {
			cix, _, pairs := c.build(t)
			sr := core.NewSearcher(cix)
			spg := new(graph.SPG)

			// Warm every buffer to its working size on the same pair set.
			for r := 0; r < 3; r++ {
				for _, p := range pairs {
					sr.QueryInto(spg, p.U, p.V)
				}
			}
			if n := passAllocs(pairs, func(p workload.Pair) { sr.QueryInto(spg, p.U, p.V) }); n != 0 {
				t.Fatalf("warm Searcher.QueryInto allocates %.0f per %d-pair pass, want 0", n, len(pairs))
			}
			if n := passAllocs(pairs, func(p workload.Pair) { sr.Distance(p.U, p.V) }); n != 0 {
				t.Fatalf("warm Searcher.Distance allocates %.0f per %d-pair pass, want 0", n, len(pairs))
			}
			if n := passAllocs(pairs, func(p workload.Pair) { sr.DistanceStats(p.U, p.V) }); n != 0 {
				t.Fatalf("warm Searcher.DistanceStats allocates %.0f per %d-pair pass, want 0", n, len(pairs))
			}
		})
	}
}

// TestWarmInstrumentedQueryZeroAllocs pins the observability criterion:
// the query path with its stage timers and engine counters (QueryStats
// out-param) plus the metrics the serving layer records per query —
// histogram Observe and counter Add — still allocates nothing on the
// warm path.
func TestWarmInstrumentedQueryZeroAllocs(t *testing.T) {
	g, pairs := allocGraph(t)
	cix := core.MustBuild(g, core.Options{NumLandmarks: 16})
	sr := core.NewSearcher(cix)
	spg := graph.NewSPG(0, 0)
	reg := obs.NewRegistry()
	hist := reg.Histogram("qbs_query_stage_ns", `stage="expand"`)
	arcs := reg.Counter("qbs_query_arcs_scanned_total", "")

	for r := 0; r < 3; r++ {
		for _, p := range pairs {
			sr.QueryInto(spg, p.U, p.V)
		}
	}
	if n := passAllocs(pairs, func(p workload.Pair) {
		st := sr.QueryInto(spg, p.U, p.V)
		hist.ObserveNs(st.ExpandNs)
		arcs.Add(st.ArcsScanned)
	}); n != 0 {
		t.Fatalf("instrumented warm QueryInto allocates %.0f per %d-pair pass, want 0", n, len(pairs))
	}
	if hist.Count() == 0 {
		t.Fatal("stage histogram recorded nothing")
	}
}

// TestWarmTracedQueryZeroAllocs pins the PR 8 tracing criterion: a warm
// query wrapped in the full span protocol the serving middleware uses —
// Begin, a stage child span with attrs, root status attr, Finish — still
// allocates nothing when the tracer's tail sampling drops the trace
// (not slow, not errored, not force-sampled). Span buffers recycle
// through the tracer freelist and the trace ID is never minted for a
// dropped trace, so the steady-state traced path is free.
func TestWarmTracedQueryZeroAllocs(t *testing.T) {
	g, pairs := allocGraph(t)
	cix := core.MustBuild(g, core.Options{NumLandmarks: 16})
	sr := core.NewSearcher(cix)
	spg := graph.NewSPG(0, 0)
	tr := obs.NewTracer(64)
	tr.SetSlowThreshold(time.Hour) // nothing below an hour is "slow"

	for r := 0; r < 3; r++ {
		for _, p := range pairs {
			tb := tr.Begin("/spg", "", 0, false)
			sr.QueryInto(spg, p.U, p.V)
			tr.Finish(tb)
		}
	}
	kept := false
	if n := passAllocs(pairs, func(p workload.Pair) {
		tb := tr.Begin("/spg", "", 0, false)
		sp := tb.StartSpan("stage:expand")
		st := sr.QueryInto(spg, p.U, p.V)
		sp.SetInt("arcs", st.ArcsScanned)
		sp.End()
		tb.Root().SetInt("status", 200)
		if tr.Finish(tb) != nil {
			kept = true
		}
	}); n != 0 {
		t.Fatalf("traced warm QueryInto allocates %.0f per %d-pair pass, want 0", n, len(pairs))
	}
	if kept {
		t.Fatal("head-sample-dropped trace was retained; the measurement did not cover the drop path")
	}
}

// TestWarmIndexQueryIntoZeroAllocs covers the public pooled entry point
// of every kind: Index, DiIndex and DynamicIndex read through one reader
// (QueryInto, QueryIntoStats, Distance and DistanceStats are its
// methods).
// GC is paused so the searcher pool cannot be emptied mid-measurement
// (a pool refill is an allocation the steady state never pays), and the
// warm rounds run at the one P testing.AllocsPerRun measures at, so the
// searcher they leave pooled is in the slot the measured passes take it
// from, not stranded in another P's.
func TestWarmIndexQueryIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	for _, c := range allocCases {
		t.Run(c.name, func(t *testing.T) {
			_, ix, pairs := c.build(t)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			spg := new(graph.SPG)
			for r := 0; r < 3; r++ {
				for _, p := range pairs {
					ix.QueryInto(spg, p.U, p.V)
				}
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for name, call := range map[string]func(p workload.Pair){
				"QueryInto":      func(p workload.Pair) { ix.QueryInto(spg, p.U, p.V) },
				"QueryIntoStats": func(p workload.Pair) { ix.QueryIntoStats(spg, p.U, p.V) },
				"Distance":       func(p workload.Pair) { ix.Distance(p.U, p.V) },
				"DistanceStats":  func(p workload.Pair) { ix.DistanceStats(p.U, p.V) },
			} {
				if n := passAllocs(pairs, call); n != 0 {
					t.Fatalf("warm %s allocates %.0f per %d-pair pass, want 0", name, n, len(pairs))
				}
			}
		})
	}
}

// TestQueryBatchRecoversFromPanic feeds QueryBatch a poisoned pair (an
// out-of-range vertex panics inside the searcher). The batch must
// complete, return every healthy result, and leave only the poisoned
// slot nil — previously the panic killed the process.
func TestQueryBatchRecoversFromPanic(t *testing.T) {
	g, pairs := allocGraph(t)
	ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 8})

	batch := make([]qbs.Pair, 0, len(pairs)+2)
	for _, p := range pairs {
		batch = append(batch, qbs.Pair{U: p.U, V: p.V})
	}
	poisonA, poisonB := 3, len(batch)/2
	batch[poisonA] = qbs.Pair{U: -1, V: 0}
	batch[poisonB] = qbs.Pair{U: 0, V: graph.V(g.NumVertices() + 5)}

	out := ix.QueryBatch(batch, 4)
	if len(out) != len(batch) {
		t.Fatalf("got %d results for %d pairs", len(out), len(batch))
	}
	for i, spg := range out {
		if i == poisonA || i == poisonB {
			if spg != nil {
				t.Fatalf("poisoned pair %d returned a result", i)
			}
			continue
		}
		if spg == nil {
			t.Fatalf("healthy pair %d lost its result", i)
		}
		want := ix.Query(batch[i].U, batch[i].V)
		if !spg.Equal(want) {
			t.Fatalf("pair %d: batch result differs from direct query", i)
		}
	}
}

// TestDynamicQueryBatchRecoversFromPanic is the same contract on the
// live-mutable index.
func TestDynamicQueryBatchRecoversFromPanic(t *testing.T) {
	g, pairs := allocGraph(t)
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 8}})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]qbs.Pair, 0, len(pairs))
	for _, p := range pairs[:16] {
		batch = append(batch, qbs.Pair{U: p.U, V: p.V})
	}
	batch[5] = qbs.Pair{U: -7, V: 1}
	out := di.QueryBatch(batch, 3)
	for i, spg := range out {
		if i == 5 {
			if spg != nil {
				t.Fatal("poisoned dynamic pair returned a result")
			}
			continue
		}
		if spg == nil {
			t.Fatalf("healthy dynamic pair %d lost its result", i)
		}
		if want := di.Query(batch[i].U, batch[i].V); !spg.Equal(want) {
			t.Fatalf("dynamic pair %d differs from direct query", i)
		}
	}
}

// --- benchmarks -------------------------------------------------------

func BenchmarkQueryInto(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		ix, pairs := benchIndexes[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			sr := core.NewSearcher(ix)
			spg := graph.NewSPG(0, 0)
			for _, p := range pairs {
				sr.QueryInto(spg, p.U, p.V)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sr.QueryInto(spg, p.U, p.V)
			}
		})
	}
}

func BenchmarkDistanceWarm(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		ix, pairs := benchIndexes[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			sr := core.NewSearcher(ix)
			for _, p := range pairs {
				sr.Distance(p.U, p.V)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sr.Distance(p.U, p.V)
			}
		})
	}
}

func BenchmarkQueryBatch(b *testing.B) {
	benchSetup(b)
	key := "YT"
	ix := qbs.MustBuildIndex(benchGraphs[key], qbs.Options{NumLandmarks: 20})
	pairs := make([]qbs.Pair, len(benchPairs[key]))
	for i, p := range benchPairs[key] {
		pairs[i] = qbs.Pair{U: p.U, V: p.V}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryBatch(pairs, 0)
	}
}

// --- directed fixtures and benchmarks -----------------------------------

// diAllocIndex returns a directed test index and sampled pairs.
func diAllocIndex(tb testing.TB) (*qbs.DiIndex, []workload.Pair) {
	tb.Helper()
	g := graph.DirectedScaleFree(800, 3, 73)
	ix := qbs.MustBuildDiIndex(g, qbs.DiOptions{NumLandmarks: 16})
	rng := rand.New(rand.NewSource(9))
	pairs := make([]workload.Pair, 64)
	for i := range pairs {
		pairs[i] = workload.Pair{U: qbs.V(rng.Intn(g.NumVertices())), V: qbs.V(rng.Intn(g.NumVertices()))}
	}
	return ix, pairs
}

func BenchmarkDiQueryInto(b *testing.B) {
	ix, pairs := diAllocIndex(b)
	spg := new(graph.SPG)
	for _, p := range pairs {
		ix.QueryInto(spg, p.U, p.V)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ix.QueryInto(spg, p.U, p.V)
	}
}

func BenchmarkDiDistanceWarm(b *testing.B) {
	ix, pairs := diAllocIndex(b)
	for _, p := range pairs {
		ix.Distance(p.U, p.V)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ix.Distance(p.U, p.V)
	}
}
