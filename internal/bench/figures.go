package bench

import (
	"fmt"
	"time"

	"qbs/internal/core"
	"qbs/internal/workload"
)

// LandmarkSweep is the |R| axis of Figures 8 and 9 (the paper sweeps
// 20–100) and, with the small prefix, of Figures 10 and 11 (0–100).
var (
	LandmarkSweep     = []int{20, 40, 60, 80, 100}
	LandmarkSweepFull = []int{5, 10, 15, 20, 40, 60, 80, 100}
)

// Figure 7 — distance distribution of sampled pairs.

// Fig7Row is one dataset's distance histogram.
type Fig7Row struct {
	Key          string
	Distribution workload.DistanceDistribution
}

// fig7Tail is the distance at which Figure 7's last column starts: the
// columns are d=1..fig7Tail-1 and d≥fig7Tail whatever the sample holds,
// so the table's shape does not depend on the pairs drawn.
const fig7Tail = 10

// Fig7 reproduces the distance-distribution figure.
func (h *Harness) Fig7() ([]Fig7Row, error) {
	var rows []Fig7Row
	t := &table{
		title:  "Figure 7 — distance distribution of sampled pairs (fraction per distance)",
		header: []string{"Dataset", "mean"},
	}
	for d := 1; d < fig7Tail; d++ {
		t.header = append(t.header, fmt.Sprintf("d=%d", d))
	}
	t.header = append(t.header, fmt.Sprintf("d≥%d", fig7Tail))
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
		dd := workload.MeasureDistances(g, pairs)
		rows = append(rows, Fig7Row{Key: key, Distribution: dd})

		fractions := make([]float64, fig7Tail+1)
		for d, f := range dd.Fraction {
			fractions[min(d, fig7Tail)] += f
		}
		cells := []string{key, fmt.Sprintf("%.2f", dd.Mean)}
		for _, f := range fractions[1:] {
			cells = append(cells, fmt.Sprintf("%.3f", f))
		}
		t.add(cells...)
	}
	t.render(h.cfg.Out)
	return rows, nil
}

// Figure 8 — pair coverage ratios under varying landmark counts.

// Fig8Cell is the coverage breakdown for one (dataset, |R|) point.
type Fig8Cell struct {
	Key          string
	NumLandmarks int
	// FractionAll: queries where every shortest path passes a landmark
	// (case i); FractionSome: some but not all (case ii). The paper's
	// "pair coverage ratio" is their sum.
	FractionAll  float64
	FractionSome float64
}

// Fig8 reproduces the pair-coverage experiment.
func (h *Harness) Fig8(sweep []int) ([]Fig8Cell, error) {
	if len(sweep) == 0 {
		sweep = LandmarkSweep
	}
	var cells []Fig8Cell
	t := &table{
		title:  "Figure 8 — pair coverage ratio (all/some shortest paths through landmarks)",
		header: []string{"Dataset"},
	}
	for _, k := range sweep {
		t.header = append(t.header, fmt.Sprintf("R=%d all", k), fmt.Sprintf("R=%d some", k))
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
		row := []string{key}
		for _, k := range sweep {
			ix, err := core.Build(g, core.Options{NumLandmarks: k})
			if err != nil {
				return nil, err
			}
			sr := core.NewSearcher(ix)
			var all, some, counted int
			for _, p := range pairs {
				_, st := sr.QueryWithStats(p.U, p.V)
				if st.Coverage == core.CoverageTrivial {
					continue
				}
				counted++
				switch st.Coverage {
				case core.CoverageAll:
					all++
				case core.CoverageSome:
					some++
				}
			}
			cell := Fig8Cell{Key: key, NumLandmarks: k}
			if counted > 0 {
				cell.FractionAll = float64(all) / float64(counted)
				cell.FractionSome = float64(some) / float64(counted)
			}
			cells = append(cells, cell)
			row = append(row, fmt.Sprintf("%.3f", cell.FractionAll), fmt.Sprintf("%.3f", cell.FractionSome))
		}
		t.add(row...)
	}
	t.render(h.cfg.Out)
	return cells, nil
}

// Figure 9 — labelling sizes under varying landmark counts.

// Fig9Cell is size(L)+size(Δ) for one (dataset, |R|) point.
type Fig9Cell struct {
	Key          string
	NumLandmarks int
	LabelBytes   int64
	DeltaBytes   int64
}

// Fig9 reproduces the labelling-size sweep.
func (h *Harness) Fig9(sweep []int) ([]Fig9Cell, error) {
	if len(sweep) == 0 {
		sweep = LandmarkSweep
	}
	var cells []Fig9Cell
	t := &table{
		title:  "Figure 9 — labelling size vs number of landmarks",
		header: []string{"Dataset"},
	}
	for _, k := range sweep {
		t.header = append(t.header, fmt.Sprintf("R=%d", k))
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		row := []string{key}
		for _, k := range sweep {
			ix, err := core.Build(g, core.Options{NumLandmarks: k})
			if err != nil {
				return nil, err
			}
			cell := Fig9Cell{Key: key, NumLandmarks: k,
				LabelBytes: ix.SizeLabelsBytes(), DeltaBytes: ix.SizeDeltaBytes()}
			cells = append(cells, cell)
			row = append(row, fmtBytes(cell.LabelBytes+cell.DeltaBytes))
		}
		t.add(row...)
	}
	t.render(h.cfg.Out)
	return cells, nil
}

// Figure 10 — construction time under varying landmark counts.

// Fig10Cell is the (parallel) construction time for one point.
type Fig10Cell struct {
	Key          string
	NumLandmarks int
	Build        time.Duration
}

// Fig10 reproduces the construction-time sweep (QbS-P, as in the paper's
// scalability argument).
func (h *Harness) Fig10(sweep []int) ([]Fig10Cell, error) {
	if len(sweep) == 0 {
		sweep = LandmarkSweepFull
	}
	var cells []Fig10Cell
	t := &table{
		title:  "Figure 10 — construction time vs number of landmarks",
		header: []string{"Dataset"},
	}
	for _, k := range sweep {
		t.header = append(t.header, fmt.Sprintf("R=%d", k))
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		row := []string{key}
		for _, k := range sweep {
			ix, err := core.Build(g, core.Options{NumLandmarks: k})
			if err != nil {
				return nil, err
			}
			cell := Fig10Cell{Key: key, NumLandmarks: k, Build: ix.Stats().TotalTime}
			cells = append(cells, cell)
			row = append(row, fmtDuration(cell.Build))
		}
		t.add(row...)
	}
	t.render(h.cfg.Out)
	return cells, nil
}

// Figure 11 — average query time under varying landmark counts.

// Fig11Cell is the mean query time for one point.
type Fig11Cell struct {
	Key          string
	NumLandmarks int
	Query        time.Duration
}

// Fig11 reproduces the query-time sweep.
func (h *Harness) Fig11(sweep []int) ([]Fig11Cell, error) {
	if len(sweep) == 0 {
		sweep = LandmarkSweepFull
	}
	var cells []Fig11Cell
	t := &table{
		title:  "Figure 11 — average query time vs number of landmarks",
		header: []string{"Dataset"},
	}
	for _, k := range sweep {
		t.header = append(t.header, fmt.Sprintf("R=%d", k))
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		pairs := workload.SamplePairs(g, h.cfg.NumQueries, h.cfg.Seed)
		row := []string{key}
		for _, k := range sweep {
			ix, err := core.Build(g, core.Options{NumLandmarks: k})
			if err != nil {
				return nil, err
			}
			sr := core.NewSearcher(ix)
			start := time.Now()
			for _, p := range pairs {
				sr.Query(p.U, p.V)
			}
			cell := Fig11Cell{Key: key, NumLandmarks: k,
				Query: time.Since(start) / time.Duration(len(pairs))}
			cells = append(cells, cell)
			row = append(row, fmtDuration(cell.Query))
		}
		t.add(row...)
	}
	t.render(h.cfg.Out)
	return cells, nil
}
