package bench

import (
	"fmt"
	"math/rand"
	"time"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/workload"
)

func datasetSpec(key string) (datasets.Spec, error) { return datasets.ByKey(key) }

// Ablation (§6.5) — edges traversed per query: full-graph Bi-BFS vs an
// unguided bidirectional search on the sparsified graph G⁻ vs the full
// sketch-guided QbS pipeline. The paper reports ~30% fewer edges from
// sparsification alone and ~66% fewer with sketch guidance on Twitter.

// TraversalRow reports mean adjacency entries scanned per query.
type TraversalRow struct {
	Key            string
	ArcsBiBFS      float64
	ArcsSparsified float64 // bidirectional on explicit G[V\R], no sketch bound
	ArcsQbS        float64
	ReductionSpars float64 // 1 - sparsified/biBFS
	ReductionQbS   float64 // 1 - qbs/biBFS
}

// AblationTraversal measures traversal reduction.
func (h *Harness) AblationTraversal() ([]TraversalRow, error) {
	var rows []TraversalRow
	t := &table{
		title: "Ablation (§6.5) — mean arcs scanned per query",
		header: []string{"Dataset", "Bi-BFS", "sparsified Bi-BFS", "QbS (guided)",
			"reduction (sparsify)", "reduction (QbS)"},
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		ix, err := core.Build(g, core.Options{NumLandmarks: h.cfg.NumLandmarks})
		if err != nil {
			return nil, err
		}
		isLand := func(v graph.V) bool { return ix.IsLandmark(v) }
		sparse := g.InducedSubgraph(func(v graph.V) bool { return !isLand(v) })
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)

		bib := bfs.NewBidirectional(g)
		bibSparse := bfs.NewBidirectional(sparse)
		sr := core.NewSearcher(ix)
		var aFull, aSparse, aQbS int64
		for _, p := range pairs {
			_, st := bib.Query(p.U, p.V)
			aFull += st.ArcsScanned
			if !isLand(p.U) && !isLand(p.V) {
				_, st2 := bibSparse.Query(p.U, p.V)
				aSparse += st2.ArcsScanned
			}
			_, st3 := sr.QueryWithStats(p.U, p.V)
			aQbS += st3.ArcsScanned
		}
		n := float64(len(pairs))
		row := TraversalRow{
			Key:            key,
			ArcsBiBFS:      float64(aFull) / n,
			ArcsSparsified: float64(aSparse) / n,
			ArcsQbS:        float64(aQbS) / n,
		}
		if row.ArcsBiBFS > 0 {
			row.ReductionSpars = 1 - row.ArcsSparsified/row.ArcsBiBFS
			row.ReductionQbS = 1 - row.ArcsQbS/row.ArcsBiBFS
		}
		rows = append(rows, row)
		t.add(key, fmt.Sprintf("%.0f", row.ArcsBiBFS), fmt.Sprintf("%.0f", row.ArcsSparsified),
			fmt.Sprintf("%.0f", row.ArcsQbS),
			fmt.Sprintf("%.0f%%", row.ReductionSpars*100), fmt.Sprintf("%.0f%%", row.ReductionQbS*100))
	}
	t.render(h.cfg.Out)
	return rows, nil
}

// Ablation — query speedup vs graph scale. The paper's 10–300×
// query-time advantage over Bi-BFS is a scale effect: Bi-BFS work grows
// with the graph while QbS queries stay nearly flat. This sweep makes
// the trend measurable at laptop scale, so the shape of Table 2 can be
// extrapolated.

// ScaleRow reports query timings at one dataset scale.
type ScaleRow struct {
	Key      string
	Scale    float64 // effective: the sweep's fraction times Config.Scale
	Vertices int
	Edges    int
	QbS      time.Duration
	BiBFS    time.Duration
	Speedup  float64
}

// AblationScale sweeps dataset scale (nil = 0.1, 0.3 and 1.0 of
// Config.Scale) and reports the QbS-vs-Bi-BFS speedup trend.
func (h *Harness) AblationScale(scales []float64) ([]ScaleRow, error) {
	if len(scales) == 0 {
		scales = []float64{0.1, 0.3, 1.0}
	}
	var rows []ScaleRow
	t := &table{
		title:  "Ablation — QbS vs Bi-BFS query time across graph scales",
		header: []string{"Dataset", "scale", "|V|", "|E|", "QbS query", "Bi-BFS query", "speedup"},
	}
	for _, key := range h.sortedKeys() {
		spec, err := datasetSpec(key)
		if err != nil {
			return nil, err
		}
		for _, frac := range scales {
			sc := frac * h.cfg.Scale
			g := spec.Generate(sc)
			ix, err := core.Build(g, core.Options{NumLandmarks: h.cfg.NumLandmarks})
			if err != nil {
				return nil, err
			}
			pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
			sr := core.NewSearcher(ix)
			start := time.Now()
			for _, p := range pairs {
				sr.Query(p.U, p.V)
			}
			qbsTime := time.Since(start) / time.Duration(len(pairs))
			bib := bfs.NewBidirectional(g)
			start = time.Now()
			for _, p := range pairs {
				bib.Query(p.U, p.V)
			}
			bibTime := time.Since(start) / time.Duration(len(pairs))
			row := ScaleRow{
				Key: key, Scale: sc, Vertices: g.NumVertices(), Edges: g.NumEdges(),
				QbS: qbsTime, BiBFS: bibTime,
				Speedup: float64(bibTime) / float64(qbsTime),
			}
			rows = append(rows, row)
			t.add(key, fmt.Sprintf("%.2f", sc), fmtCount(row.Vertices), fmtCount(row.Edges),
				fmtDuration(row.QbS), fmtDuration(row.BiBFS), fmt.Sprintf("%.1fx", row.Speedup))
		}
	}
	t.render(h.cfg.Out)
	return rows, nil
}

// Ablation — directed QbS (§2 extension) on the directed datasets.

// DirectedRow reports directed index construction and query timings.
type DirectedRow struct {
	Key      string
	Vertices int
	Arcs     int
	Build    time.Duration
	Query    time.Duration // directed QbS mean per query
	BiBFS    time.Duration // directed bidirectional BFS baseline
	Speedup  float64
}

// AblationDirected builds directed analogs of the datasets Table 1
// marks as directed and compares directed QbS against directed Bi-BFS.
func (h *Harness) AblationDirected() ([]DirectedRow, error) {
	var rows []DirectedRow
	t := &table{
		title:  "Ablation (§2) — directed QbS on the directed datasets",
		header: []string{"Dataset", "|V|", "arcs", "build", "QbS query", "Di-Bi-BFS query", "speedup"},
	}
	for _, key := range h.sortedKeys() {
		spec, err := datasets.ByKey(key)
		if err != nil {
			return nil, err
		}
		if !spec.Directed {
			continue
		}
		g := spec.GenerateDirected(h.cfg.Scale)
		ix, err := core.BuildDirected(g, core.Options{NumLandmarks: h.cfg.NumLandmarks})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(h.cfg.Seed))
		type qp struct{ u, v graph.V }
		pairs := make([]qp, h.cfg.NumQueries)
		for i := range pairs {
			pairs[i] = qp{graph.V(rng.Intn(g.NumVertices())), graph.V(rng.Intn(g.NumVertices()))}
		}
		sr := core.NewSearcher(ix)
		spg := new(graph.SPG)
		start := time.Now()
		for _, p := range pairs {
			sr.QueryInto(spg, p.u, p.v)
		}
		qbsTime := time.Since(start) / time.Duration(len(pairs))
		bib := bfs.NewDirectedBidirectional(g)
		start = time.Now()
		for _, p := range pairs {
			bib.Query(p.u, p.v)
		}
		bibTime := time.Since(start) / time.Duration(len(pairs))
		row := DirectedRow{
			Key: key, Vertices: g.NumVertices(), Arcs: g.NumArcs(),
			Build: ix.Stats().TotalTime, Query: qbsTime, BiBFS: bibTime,
			Speedup: float64(bibTime) / float64(qbsTime),
		}
		rows = append(rows, row)
		t.add(key, fmtCount(row.Vertices), fmtCount(row.Arcs), fmtDuration(row.Build),
			fmtDuration(row.Query), fmtDuration(row.BiBFS), fmt.Sprintf("%.1fx", row.Speedup))
	}
	t.render(h.cfg.Out)
	return rows, nil
}

// Ablation (§8 future work) — landmark selection strategies.

// StrategyRow compares landmark strategies on one dataset.
type StrategyRow struct {
	Key      string
	Strategy string
	Query    time.Duration
	Coverage float64 // fraction of pairs with any landmark on a shortest path
	Labels   int64   // size(L)+size(Δ)
}

// AblationLandmarks compares degree, random and coverage strategies.
func (h *Harness) AblationLandmarks() ([]StrategyRow, error) {
	strategies := []struct {
		name string
		fn   core.LandmarkStrategy
	}{
		{"degree", core.ByDegree},
		{"random", core.Random},
		{"coverage", core.ByCoverage},
		{"betweenness", core.ByApproxBetweenness},
	}
	var rows []StrategyRow
	t := &table{
		title:  "Ablation (§8) — landmark selection strategies",
		header: []string{"Dataset", "Strategy", "mean query", "pair coverage", "index size"},
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
		for _, s := range strategies {
			ix, err := core.Build(g, core.Options{
				NumLandmarks: h.cfg.NumLandmarks, Strategy: s.fn, Seed: h.cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			sr := core.NewSearcher(ix)
			var covered, counted int
			start := time.Now()
			for _, p := range pairs {
				_, st := sr.QueryWithStats(p.U, p.V)
				if st.Coverage == core.CoverageTrivial {
					continue
				}
				counted++
				if st.Coverage != core.CoverageNone {
					covered++
				}
			}
			row := StrategyRow{
				Key: key, Strategy: s.name,
				Query:  time.Since(start) / time.Duration(len(pairs)),
				Labels: ix.SizeLabelsBytes() + ix.SizeDeltaBytes(),
			}
			if counted > 0 {
				row.Coverage = float64(covered) / float64(counted)
			}
			rows = append(rows, row)
			t.add(key, s.name, fmtDuration(row.Query),
				fmt.Sprintf("%.3f", row.Coverage), fmtBytes(row.Labels))
		}
	}
	t.render(h.cfg.Out)
	return rows, nil
}
