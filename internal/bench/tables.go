package bench

import (
	"fmt"
	"time"

	"qbs/internal/bfs"
	"qbs/internal/core"
	"qbs/internal/datasets"
	"qbs/internal/workload"
)

// Table 1 — dataset statistics.

// Table1Row is one dataset's statistics alongside the published values.
type Table1Row struct {
	Key, Name, Kind string
	Directed        bool
	Vertices        int
	Edges           int
	MaxDegree       int
	AvgDegree       float64
	AvgDistance     float64
	SizeBytes       int64
	PaperAvgDegree  float64
	PaperAvgDist    float64
}

// Table1 reproduces the dataset statistics table over the analogs.
func (h *Harness) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	t := &table{
		title:  "Table 1 — dataset analogs",
		header: []string{"Dataset", "Type", "|V|", "|E|", "max deg", "avg deg", "avg dist", "|G|", "paper avg deg", "paper avg dist"},
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		spec, _ := datasets.ByKey(key)
		paper := datasets.Paper[key]
		row := Table1Row{
			Key: key, Name: spec.Name, Kind: spec.Kind, Directed: spec.Directed,
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			MaxDegree: g.MaxDegree(), AvgDegree: g.AvgDegree(),
			AvgDistance:    workload.ApproxAvgDistance(g, 24, h.cfg.Seed),
			SizeBytes:      g.SizeBytes(),
			PaperAvgDegree: paper.AvgDeg, PaperAvgDist: paper.AvgDist,
		}
		rows = append(rows, row)
		t.add(fmt.Sprintf("%s (%s)", spec.Name, key), spec.Kind,
			fmtCount(row.Vertices), fmtCount(row.Edges), fmtCount(row.MaxDegree),
			fmt.Sprintf("%.2f", row.AvgDegree), fmt.Sprintf("%.2f", row.AvgDistance),
			fmtBytes(row.SizeBytes),
			fmt.Sprintf("%.2f", paper.AvgDeg), fmt.Sprintf("%.2f", paper.AvgDist))
	}
	t.render(h.cfg.Out)
	return rows, nil
}

// Table 2 — construction time and average query time.

// Table2Row reports per-dataset construction and query timings. A
// baseline that did not complete has zero durations, and its Failure
// field records whether it was DNF (time budget) or OOE (size budget).
type Table2Row struct {
	Key string

	BuildQbSP time.Duration // parallel labelling (QbS-P)
	BuildQbS  time.Duration // sequential labelling (QbS)

	BuildPPL        time.Duration
	PPLFailure      string // "", "DNF" or "OOE"
	BuildParent     time.Duration
	ParentFailure   string
	QueryQbS        time.Duration // mean per query
	QueryPPL        time.Duration
	QueryParent     time.Duration
	QueryBiBFS      time.Duration
	SpeedupVsBiBFS  float64
	QueriesMeasured int
}

// Table2 reproduces the construction-time and query-time comparison.
func (h *Harness) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	t := &table{
		title: "Table 2 — construction time and average query time",
		header: []string{"Dataset", "QbS-P build", "QbS build", "PPL build", "ParentPPL build",
			"QbS query", "PPL query", "ParentPPL query", "Bi-BFS query", "QbS speedup vs Bi-BFS"},
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		// QbS-P (parallel labelling) and the QbS query: the |R| point.
		p, err := h.point(key, h.cfg.NumLandmarks, 0)
		if err != nil {
			return nil, err
		}
		// QbS: sequential labelling construction.
		ixS, err := core.Build(g, core.Options{NumLandmarks: h.cfg.NumLandmarks, Parallelism: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		pl, err := h.baseline(key, false)
		if err != nil {
			return nil, err
		}
		parent, err := h.baseline(key, true)
		if err != nil {
			return nil, err
		}
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
		bib := bfs.NewBidirectional(g)
		row := Table2Row{
			Key:       key,
			BuildQbSP: p.build.TotalTime, BuildQbS: ixS.Stats().TotalTime,
			BuildPPL: pl.build, PPLFailure: pl.failure,
			BuildParent: parent.build, ParentFailure: parent.failure,
			QueryQbS: p.query, QueryPPL: pl.query, QueryParent: parent.query,
			QueryBiBFS:      meanQueryTime(pairs, func(q workload.Pair) { bib.Query(q.U, q.V) }),
			QueriesMeasured: len(pairs),
		}
		if row.QueryQbS > 0 {
			row.SpeedupVsBiBFS = float64(row.QueryBiBFS) / float64(row.QueryQbS)
		}
		rows = append(rows, row)
		t.add(key, fmtDuration(row.BuildQbSP), fmtDuration(row.BuildQbS),
			pl.or(fmtDuration(row.BuildPPL)), parent.or(fmtDuration(row.BuildParent)),
			fmtDuration(row.QueryQbS), pl.or(fmtDuration(row.QueryPPL)),
			parent.or(fmtDuration(row.QueryParent)), fmtDuration(row.QueryBiBFS),
			fmt.Sprintf("%.1fx", row.SpeedupVsBiBFS))
	}
	t.render(h.cfg.Out)
	return rows, nil
}

// Table 3 — labelling sizes.

// Table3Row reports the size accounting of each method's labelling.
type Table3Row struct {
	Key           string
	QbSLabels     int64 // size(L)
	QbSDelta      int64 // size(Δ)
	QbSMeta       int64 // meta-graph matrices
	PPLBytes      int64
	PPLFailure    string
	ParentBytes   int64
	ParentFailure string
	GraphBytes    int64
}

// Table3 reproduces the labelling-size comparison.
func (h *Harness) Table3() ([]Table3Row, error) {
	var rows []Table3Row
	t := &table{
		title:  "Table 3 — labelling sizes",
		header: []string{"Dataset", "QbS size(L)", "QbS size(Δ)", "PPL", "ParentPPL", "|G|"},
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		p, err := h.point(key, h.cfg.NumLandmarks, 0)
		if err != nil {
			return nil, err
		}
		pl, err := h.baseline(key, false)
		if err != nil {
			return nil, err
		}
		parent, err := h.baseline(key, true)
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			Key:       key,
			QbSLabels: p.labelBytes, QbSDelta: p.deltaBytes, QbSMeta: p.metaBytes,
			PPLBytes: pl.bytes, PPLFailure: pl.failure,
			ParentBytes: parent.bytes, ParentFailure: parent.failure,
			GraphBytes: g.SizeBytes(),
		}
		rows = append(rows, row)
		t.add(key, fmtBytes(row.QbSLabels), fmtBytes(row.QbSDelta),
			pl.or(fmtBytes(row.PPLBytes)), parent.or(fmtBytes(row.ParentBytes)),
			fmtBytes(row.GraphBytes))
	}
	t.render(h.cfg.Out)
	return rows, nil
}
