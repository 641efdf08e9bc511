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
		// The index answers every sampled pair exactly: its distances are
		// the distribution (TestFig7IsMeasureDistances).
		p, err := h.point(key, h.cfg.NumLandmarks, 0)
		if err != nil {
			return nil, err
		}
		dd := p.distances
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

// sweep renders one row per analog with, per |R| of sweep (nil =
// dflt), the columns named by formatting each of cols with |R| and
// filled by cells from that (analog, |R|) point.
func (h *Harness) sweep(title string, sweep, dflt []int, cols []string, cells func(key string, r int, p *point) []string) error {
	if len(sweep) == 0 {
		sweep = dflt
	}
	t := &table{title: title, header: []string{"Dataset"}}
	for _, r := range sweep {
		for _, c := range cols {
			t.header = append(t.header, fmt.Sprintf(c, r))
		}
	}
	for _, key := range h.sortedKeys() {
		row := []string{key}
		for _, r := range sweep {
			p, err := h.point(key, r, 0)
			if err != nil {
				return err
			}
			row = append(row, cells(key, r, p)...)
		}
		t.add(row...)
	}
	t.render(h.cfg.Out)
	return nil
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
	var cells []Fig8Cell
	err := h.sweep("Figure 8 — pair coverage ratio (all/some shortest paths through landmarks)",
		sweep, LandmarkSweep, []string{"R=%d all", "R=%d some"}, func(key string, r int, p *point) []string {
			c := Fig8Cell{Key: key, NumLandmarks: r,
				FractionAll: p.covered(core.CoverageAll), FractionSome: p.covered(core.CoverageSome)}
			cells = append(cells, c)
			return []string{fmt.Sprintf("%.3f", c.FractionAll), fmt.Sprintf("%.3f", c.FractionSome)}
		})
	return cells, err
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
	var cells []Fig9Cell
	err := h.sweep("Figure 9 — labelling size vs number of landmarks",
		sweep, LandmarkSweep, []string{"R=%d"}, func(key string, r int, p *point) []string {
			c := Fig9Cell{Key: key, NumLandmarks: r, LabelBytes: p.labelBytes, DeltaBytes: p.deltaBytes}
			cells = append(cells, c)
			return []string{fmtBytes(c.LabelBytes + c.DeltaBytes)}
		})
	return cells, err
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
	var cells []Fig10Cell
	err := h.sweep("Figure 10 — construction time vs number of landmarks",
		sweep, LandmarkSweepFull, []string{"R=%d"}, func(key string, r int, p *point) []string {
			c := Fig10Cell{Key: key, NumLandmarks: r, Build: p.build.TotalTime}
			cells = append(cells, c)
			return []string{fmtDuration(c.Build)}
		})
	return cells, err
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
	var cells []Fig11Cell
	err := h.sweep("Figure 11 — average query time vs number of landmarks",
		sweep, LandmarkSweepFull, []string{"R=%d"}, func(key string, r int, p *point) []string {
			c := Fig11Cell{Key: key, NumLandmarks: r, Query: p.query}
			cells = append(cells, c)
			return []string{fmtDuration(c.Query)}
		})
	return cells, err
}
