package bench

import (
	"fmt"
	"time"

	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/workload"
)

// Dynamic-updates experiment (beyond the paper, which freezes the graph
// after construction): serve a mixed read/write stream against the
// live-mutable index and compare per-update incremental repair cost with
// the alternative the paper's design implies — a full rebuild per batch
// of changes. One row per write ratio on a mid-size dataset analog.

// DynamicRow is one row of the dynamic-updates experiment.
type DynamicRow struct {
	Dataset    string
	WriteRatio float64
	Queries    int
	Inserts    int
	Deletes    int

	AvgQuery  time.Duration // mean query latency during churn
	AvgInsert time.Duration // mean AddEdge (incremental repair) latency
	AvgDelete time.Duration // mean RemoveEdge latency
	Rebuild   time.Duration // full static rebuild of the final graph

	InsertSpeedup float64 // Rebuild / AvgInsert
	DeleteSpeedup float64 // Rebuild / AvgDelete

	ColumnsRebuilt uint64 // budget-fallback re-BFSes across the stream
	Compactions    uint64
}

// dynamicDataset picks the experiment's dataset: YT (the mid-size
// Youtube analog) when configured, otherwise the largest configured key.
func (h *Harness) dynamicDataset() string {
	best := ""
	for _, k := range h.sortedKeys() {
		if k == "YT" {
			return k
		}
		best = k
	}
	return best
}

// DynamicUpdates runs the experiment across write ratios (nil = 1%,
// 10%, 50%).
func (h *Harness) DynamicUpdates(ratios []float64) ([]DynamicRow, error) {
	if len(ratios) == 0 {
		ratios = []float64{0.01, 0.1, 0.5}
	}
	key := h.dynamicDataset()
	g, err := h.Graph(key)
	if err != nil {
		return nil, err
	}

	var rows []DynamicRow
	for _, ratio := range ratios {
		d, err := dynamic.New(g, g.TopDegreeVertices(h.cfg.NumLandmarks), dynamic.Options{})
		if err != nil {
			return nil, err
		}
		// cfg.NumQueries keeps its harness-wide meaning (query pairs per
		// dataset): writes ride on top, so the stream is sized for the
		// expected query fraction.
		var total int
		if ratio < 0.95 {
			total = int(float64(h.cfg.NumQueries) / (1 - ratio))
		} else {
			total = h.cfg.NumQueries * 20
		}
		ops := workload.MixedOps(g, total, ratio, h.cfg.Seed)

		row := DynamicRow{Dataset: key, WriteRatio: ratio}
		var qTime, insTime, delTime time.Duration
		for _, op := range ops {
			start := time.Now()
			switch op.Kind {
			case workload.OpQuery:
				d.Query(op.U, op.V)
				qTime += time.Since(start)
				row.Queries++
			case workload.OpInsert:
				if _, err := d.AddEdge(op.U, op.V); err != nil {
					return nil, fmt.Errorf("dynamic insert {%d,%d}: %w", op.U, op.V, err)
				}
				insTime += time.Since(start)
				row.Inserts++
			case workload.OpDelete:
				if _, err := d.RemoveEdge(op.U, op.V); err != nil {
					return nil, fmt.Errorf("dynamic delete {%d,%d}: %w", op.U, op.V, err)
				}
				delTime += time.Since(start)
				row.Deletes++
			}
		}

		// The alternative: rebuild the static index over the final graph.
		final := d.CurrentGraph().Materialize()
		start := time.Now()
		if _, err := core.Build(final, core.Options{NumLandmarks: h.cfg.NumLandmarks}); err != nil {
			return nil, err
		}
		row.Rebuild = time.Since(start)

		if row.Queries > 0 {
			row.AvgQuery = qTime / time.Duration(row.Queries)
		}
		if row.Inserts > 0 {
			row.AvgInsert = insTime / time.Duration(row.Inserts)
			row.InsertSpeedup = float64(row.Rebuild) / float64(row.AvgInsert)
		}
		if row.Deletes > 0 {
			row.AvgDelete = delTime / time.Duration(row.Deletes)
			row.DeleteSpeedup = float64(row.Rebuild) / float64(row.AvgDelete)
		}
		st := d.Stats()
		row.ColumnsRebuilt = st.ColumnsRebuilt
		row.Compactions = st.Compactions
		rows = append(rows, row)
	}

	tbl := &table{
		title: "Dynamic updates — incremental repair vs full rebuild",
		header: []string{"Dataset", "write%", "queries", "ins", "del", "avg query", "avg insert", "avg delete",
			"rebuild", "ins speedup", "del speedup", "fallbacks", "compactions"},
	}
	for _, r := range rows {
		tbl.add(
			r.Dataset, fmt.Sprintf("%.0f%%", r.WriteRatio*100),
			fmtCount(r.Queries), fmtCount(r.Inserts), fmtCount(r.Deletes),
			fmtDuration(r.AvgQuery), fmtDuration(r.AvgInsert), fmtDuration(r.AvgDelete),
			fmtDuration(r.Rebuild),
			fmt.Sprintf("%.0f×", r.InsertSpeedup),
			fmt.Sprintf("%.0f×", r.DeleteSpeedup),
			fmt.Sprintf("%d", r.ColumnsRebuilt),
			fmt.Sprintf("%d", r.Compactions),
		)
	}
	tbl.render(h.cfg.Out)
	return rows, nil
}
