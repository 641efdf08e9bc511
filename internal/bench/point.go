package bench

import (
	"fmt"
	"slices"
	"time"

	"qbs/internal/core"
	"qbs/internal/graph"
	"qbs/internal/ppl"
	"qbs/internal/workload"
)

// The evaluation's measured passes. Tables 2-3, Figures 7-11 and the
// §6.5 and §8 ablations read the same analogs, landmarks and sampled
// pairs, so a harness builds and queries each index once: a point per
// (analog, |R|, landmark strategy) and a baseline per (analog, PPL
// variant), each memoised on first use. A memo keeps numbers and the
// landmark set, never an index, so a harness holds one at a time.

// landmarkStrategies are the §8 ablation's landmark selections. The
// first, degree, is the paper's and core.Build's default: every other
// experiment reads strategy 0.
var landmarkStrategies = []struct {
	name string
	fn   core.LandmarkStrategy
}{
	{"degree", core.ByDegree},
	{"random", core.Random},
	{"coverage", core.ByCoverage},
	{"betweenness", core.ByApproxBetweenness},
}

type pointKey struct {
	key         string
	r, strategy int // |R| and an index into landmarkStrategies
}

// point is one core.Build of an analog and one timed QueryWithStats pass
// over its sampled pairs.
type point struct {
	build                             core.BuildStats
	labelBytes, deltaBytes, metaBytes int64 // size(L), size(Δ), σ and APSP
	landmarks                         []graph.V
	query                             time.Duration                 // mean per pair
	arcs                              float64                       // mean arcs scanned per pair
	coverage                          [core.CoverageTrivial + 1]int // pairs per core.CoverageCase, CoverageTrivial last
	distances                         workload.DistanceDistribution // of the answers
}

// point returns the memoised pass of analog key at |R| = r under
// landmarkStrategies[strategy], measuring it on first use.
func (h *Harness) point(key string, r, strategy int) (*point, error) {
	pk := pointKey{key, r, strategy}
	if p, ok := h.pointMemo[pk]; ok {
		return p, nil
	}
	g, err := h.Graph(key)
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(g, core.Options{
		NumLandmarks: r, Strategy: landmarkStrategies[strategy].fn, Seed: h.cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	p := &point{
		build:      ix.Stats(),
		labelBytes: ix.SizeLabelsBytes(), deltaBytes: ix.SizeDeltaBytes(), metaBytes: ix.SizeMetaBytes(),
		landmarks: ix.Landmarks(),
	}
	pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
	dists := make([]int32, 0, len(pairs))
	var arcs int64
	sr := core.NewSearcher(ix)
	p.query = meanQueryTime(pairs, func(q workload.Pair) {
		_, st := sr.QueryWithStats(q.U, q.V)
		p.coverage[st.Coverage]++
		arcs += st.ArcsScanned
		dists = append(dists, st.Dist)
	})
	p.arcs = float64(arcs) / float64(len(pairs))
	p.distances = distribution(dists)
	h.pointMemo[pk] = p
	h.passes++
	return p, nil
}

// covered is the fraction of the pass's non-trivial pairs (u ≠ v,
// connected) whose coverage case is one of cases.
func (p *point) covered(cases ...core.CoverageCase) float64 {
	var n, counted int
	for c, k := range p.coverage[:core.CoverageTrivial] {
		counted += k
		if slices.Contains(cases, core.CoverageCase(c)) {
			n += k
		}
	}
	if counted == 0 {
		return 0
	}
	return float64(n) / float64(counted)
}

// distribution is Figure 7's histogram of the exact distances a pass
// answered, the DistanceDistribution workload.MeasureDistances gives for
// the same pairs.
func distribution(dists []int32) workload.DistanceDistribution {
	var dd workload.DistanceDistribution
	var sum, finite int64
	for _, d := range dists {
		if d == graph.InfDist {
			dd.Unreachable++
			continue
		}
		dd.Max = max(dd.Max, d)
		sum += int64(d)
		finite++
	}
	dd.Counts = make([]int, dd.Max+1)
	dd.Fraction = make([]float64, dd.Max+1)
	for _, d := range dists {
		if d != graph.InfDist {
			dd.Counts[d]++
		}
	}
	if len(dists) > 0 {
		for d, c := range dd.Counts {
			dd.Fraction[d] = float64(c) / float64(len(dists))
		}
	}
	if finite > 0 {
		dd.Mean = float64(sum) / float64(finite)
	}
	return dd
}

type baselineKey struct {
	key     string
	parents bool
}

// baseline is one ppl.Build of an analog under its budget and, when it
// completes, one timed query pass over the sampled pairs.
type baseline struct {
	failure string // "", "DNF" (time budget) or "OOE" (size budget)
	build   time.Duration
	bytes   int64
	query   time.Duration // mean per pair
}

// baseline returns the memoised PPL (parents = false) or ParentPPL
// baseline of analog key, building it on first use.
func (h *Harness) baseline(key string, parents bool) (*baseline, error) {
	bk := baselineKey{key, parents}
	if b, ok := h.baselineMemo[bk]; ok {
		return b, nil
	}
	g, err := h.Graph(key)
	if err != nil {
		return nil, err
	}
	budget := h.cfg.PPLBudget
	if parents {
		budget = h.cfg.ParentPPLBudget
	}
	ix, err := ppl.Build(g, ppl.Options{
		WithParents: parents, MaxTime: budget, MaxLabelBytes: h.cfg.LabelByteBudget,
	})
	b := &baseline{}
	switch err {
	case nil:
		b.build, b.bytes = ix.BuildTime(), ix.SizeBytes()
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
		b.query = meanQueryTime(pairs, func(q workload.Pair) { ix.Query(q.U, q.V) })
	case ppl.ErrTimeBudget:
		b.failure = "DNF"
	case ppl.ErrSizeBudget:
		b.failure = "OOE"
	default:
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	h.baselineMemo[bk] = b
	h.passes++
	return b, nil
}

// or is cell, or the baseline's failure when it did not complete.
func (b *baseline) or(cell string) string {
	if b.failure != "" {
		return b.failure
	}
	return cell
}

// meanQueryTime runs query once per pair, in order, and returns the mean
// wall time per pair.
func meanQueryTime(pairs []workload.Pair, query func(workload.Pair)) time.Duration {
	start := time.Now()
	for _, p := range pairs {
		query(p)
	}
	return time.Since(start) / time.Duration(len(pairs))
}
