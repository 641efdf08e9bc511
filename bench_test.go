// Root-level benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation, over representative dataset analogs. The full
// 12-dataset sweeps live in cmd/qbs-bench; these benchmarks are the
// quick-turnaround versions wired into `go test -bench=.`.
//
// Mapping (bench.Experiments is the complete per-experiment index):
//
//	Table 1  -> BenchmarkTable1Stats
//	Table 2  -> BenchmarkTable2Build*, BenchmarkTable2Query*
//	Table 3  -> BenchmarkTable3LabelSize
//	Figure 7 -> BenchmarkFig7DistanceDistribution
//	Figure 8 -> BenchmarkFig8PairCoverage
//	Figure 9 -> BenchmarkFig9LabelSizeSweep
//	Figure 10-> BenchmarkFig10ConstructionSweep
//	Figure 11-> BenchmarkFig11QuerySweep
//	§6.5     -> BenchmarkAblationTraversal
//	§8       -> BenchmarkAblationLandmarkStrategies
//
// The query loops here cycle 256 pairs over graphs of a few thousand
// vertices: cache-resident, they time the kernel's instructions. What a
// query costs at the sizes the server serves is BenchmarkQueryColdPairs
// (cold_bench_test.go).
package qbs_test

import (
	"sync"
	"testing"

	"qbs"
	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/ppl"
	"qbs/internal/workload"
)

// benchScale keeps `go test -bench=.` fast while preserving the
// structural contrasts; cmd/qbs-bench raises it for full runs.
const benchScale = 0.08

// benchKeys are the representative analogs: a sparse social graph with
// hubs (DO), a hub-extreme one (YT) and the flat-degree one (FR).
var benchKeys = []string{"DO", "YT", "FR"}

var (
	benchGraphsOnce sync.Once
	benchGraphs     map[string]*graph.Graph
	benchIndexes    map[string]*core.Index
	benchPairs      map[string][]workload.Pair
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchGraphsOnce.Do(func() {
		benchGraphs = map[string]*graph.Graph{}
		benchIndexes = map[string]*core.Index{}
		benchPairs = map[string][]workload.Pair{}
		for _, key := range benchKeys {
			spec, err := datasets.ByKey(key)
			if err != nil {
				panic(err)
			}
			g := spec.Generate(benchScale)
			benchGraphs[key] = g
			benchIndexes[key] = core.MustBuild(g, core.Options{NumLandmarks: 20})
			benchPairs[key] = workload.SamplePairs(g, 256, 2021)
		}
	})
}

// --- Table 1 ---

func BenchmarkTable1Stats(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g := benchGraphs[key]
		b.Run(key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := graph.ComputeStats(g)
				if st.NumVertices == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// --- Table 2: construction ---

func BenchmarkTable2BuildQbSP(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g := benchGraphs[key]
		b.Run(key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MustBuild(g, core.Options{NumLandmarks: 20})
			}
		})
	}
}

func BenchmarkTable2BuildQbSSequential(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g := benchGraphs[key]
		b.Run(key, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustBuild(g, core.Options{NumLandmarks: 20, Parallelism: 1})
			}
		})
	}
}

// BenchmarkDynamicNew is the dynamic index's full build at serving size
// (the yt-mixed and fr-read graphs), through the public entry point, next
// to the static build of the same graph and landmarks. The two run the
// same construction — one labelling sweep, one Δ recovery — so the
// dynamic row is the static one plus the distance columns (4·|R| bytes a
// vertex to allocate and fill); a gap beyond that is a second build path
// growing back.
func BenchmarkDynamicNew(b *testing.B) {
	for _, in := range []struct {
		key   string
		scale float64
	}{{"YT", 10}, {"FR", 2}} {
		b.Run(in.key, func(b *testing.B) {
			spec, err := datasets.ByKey(in.key)
			if err != nil {
				b.Fatal(err)
			}
			g := spec.Generate(in.scale)
			b.Run("BuildDynamicIndex", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{CompactFraction: -1}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("BuildIndex", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					qbs.MustBuildIndex(g, qbs.Options{})
				}
			})
		})
	}
}

func BenchmarkTable2BuildPPL(b *testing.B) {
	benchSetup(b)
	// PPL is the paper's scalability wall; bench only the smallest analog.
	g := benchGraphs["DO"]
	b.Run("DO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ppl.MustBuild(g, ppl.Options{})
		}
	})
}

func BenchmarkTable2BuildParentPPL(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	b.Run("DO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ppl.MustBuild(g, ppl.Options{WithParents: true})
		}
	})
}

// --- Table 2: query time ---

func BenchmarkTable2QueryQbS(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		ix, pairs := benchIndexes[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			sr := core.NewSearcher(ix)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sr.Query(p.U, p.V)
			}
		})
	}
}

func BenchmarkTable2QueryPPL(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	ix := ppl.MustBuild(g, ppl.Options{})
	pairs := benchPairs["DO"]
	b.Run("DO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.Query(p.U, p.V)
		}
	})
}

func BenchmarkTable2QueryParentPPL(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	ix := ppl.MustBuild(g, ppl.Options{WithParents: true})
	pairs := benchPairs["DO"]
	b.Run("DO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.Query(p.U, p.V)
		}
	})
}

func BenchmarkTable2QueryBiBFS(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g, pairs := benchGraphs[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			searcher := bfs.NewBidirectional(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				searcher.Query(p.U, p.V)
			}
		})
	}
}

// --- Table 3 ---

func BenchmarkTable3LabelSize(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g := benchGraphs[key]
		b.Run(key, func(b *testing.B) {
			var l, d int64
			for i := 0; i < b.N; i++ {
				ix := core.MustBuild(g, core.Options{NumLandmarks: 20})
				l, d = ix.SizeLabelsBytes(), ix.SizeDeltaBytes()
			}
			b.ReportMetric(float64(l), "size(L)_bytes")
			b.ReportMetric(float64(d), "size(Δ)_bytes")
		})
	}
}

// --- Figure 7 ---

func BenchmarkFig7DistanceDistribution(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g, pairs := benchGraphs[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				dd := workload.MeasureDistances(g, pairs)
				mean = dd.Mean
			}
			b.ReportMetric(mean, "mean_distance")
		})
	}
}

// --- Figure 8 ---

func BenchmarkFig8PairCoverage(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		ix, pairs := benchIndexes[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			sr := core.NewSearcher(ix)
			var covered, total int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				_, st := sr.QueryWithStats(p.U, p.V)
				if st.Coverage != core.CoverageTrivial {
					total++
					if st.Coverage != core.CoverageNone {
						covered++
					}
				}
			}
			if total > 0 {
				b.ReportMetric(float64(covered)/float64(total), "pair_coverage")
			}
		})
	}
}

// --- Figure 9 ---

func BenchmarkFig9LabelSizeSweep(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	for _, r := range []int{20, 60, 100} {
		b.Run(sweepName(r), func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				ix := core.MustBuild(g, core.Options{NumLandmarks: r})
				size = ix.SizeLabelsBytes() + ix.SizeDeltaBytes()
			}
			b.ReportMetric(float64(size), "index_bytes")
		})
	}
}

// --- Figure 10 ---

func BenchmarkFig10ConstructionSweep(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	for _, r := range []int{5, 20, 60, 100} {
		b.Run(sweepName(r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustBuild(g, core.Options{NumLandmarks: r})
			}
		})
	}
}

// --- Figure 11 ---

func BenchmarkFig11QuerySweep(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	pairs := benchPairs["DO"]
	for _, r := range []int{5, 20, 60, 100} {
		ix := core.MustBuild(g, core.Options{NumLandmarks: r})
		b.Run(sweepName(r), func(b *testing.B) {
			sr := core.NewSearcher(ix)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sr.Query(p.U, p.V)
			}
		})
	}
}

// --- Ablations ---

func BenchmarkAblationTraversal(b *testing.B) {
	benchSetup(b)
	for _, key := range benchKeys {
		g, ix, pairs := benchGraphs[key], benchIndexes[key], benchPairs[key]
		b.Run(key, func(b *testing.B) {
			sr := core.NewSearcher(ix)
			bib := bfs.NewBidirectional(g)
			var qbsArcs, bibArcs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				_, st := sr.QueryWithStats(p.U, p.V)
				qbsArcs += st.ArcsScanned
				_, st2 := bib.Query(p.U, p.V)
				bibArcs += st2.ArcsScanned
			}
			if bibArcs > 0 {
				b.ReportMetric(100*(1-float64(qbsArcs)/float64(bibArcs)), "arc_reduction_%")
			}
		})
	}
}

func BenchmarkAblationLandmarkStrategies(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["DO"]
	pairs := benchPairs["DO"]
	for _, s := range []qbs.Strategy{qbs.StrategyDegree, qbs.StrategyRandom, qbs.StrategyCoverage} {
		ix := qbs.MustBuildIndex(g, qbs.Options{NumLandmarks: 20, Strategy: s, Seed: 7})
		b.Run(string(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ix.Query(p.U, p.V)
			}
		})
	}
}

// --- memory-layout ablation (vertex relabeling for locality) ---

func BenchmarkAblationRelabel(b *testing.B) {
	benchSetup(b)
	g := benchGraphs["YT"]
	variants := map[string]*graph.Graph{"original": g}
	byDeg, _, _ := graph.RelabelByDegree(g)
	variants["degree-ordered"] = byDeg
	byBFS, _, _ := graph.RelabelByBFS(g)
	variants["bfs-ordered"] = byBFS
	for _, name := range []string{"original", "degree-ordered", "bfs-ordered"} {
		vg := variants[name]
		ix := core.MustBuild(vg, core.Options{NumLandmarks: 20})
		pairs := workload.SamplePairs(vg, 256, 2021)
		b.Run(name, func(b *testing.B) {
			sr := core.NewSearcher(ix)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				sr.Query(p.U, p.V)
			}
		})
	}
}

// --- §2 directed extension ---

func BenchmarkDirectedQuery(b *testing.B) {
	g := graph.DirectedScaleFree(20000, 3, 2021)
	ix, err := core.Build(g, core.Options{NumLandmarks: 20})
	if err != nil {
		b.Fatal(err)
	}
	pairs := newDeterministicPairs(g.NumVertices(), 256)
	sr := core.NewSearcher(ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sr.QueryInto(new(graph.SPG), p[0], p[1])
	}
}

func BenchmarkDirectedBiBFS(b *testing.B) {
	g := graph.DirectedScaleFree(20000, 3, 2021)
	searcher := bfs.NewBidirectional(g)
	r := newDeterministicPairs(g.NumVertices(), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r[i%len(r)]
		searcher.Query(p[0], p[1])
	}
}

func newDeterministicPairs(n, count int) [][2]graph.V {
	out := make([][2]graph.V, count)
	state := uint64(0x9E3779B97F4A7C15)
	next := func() int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for i := range out {
		out[i] = [2]graph.V{graph.V(next()), graph.V(next())}
	}
	return out
}

func sweepName(r int) string {
	switch {
	case r < 10:
		return "R=00" + string(rune('0'+r))
	case r < 100:
		return "R=0" + itoa(r)
	default:
		return "R=" + itoa(r)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
