// Package bench regenerates the paper's evaluation and nothing else: one
// runner per table and figure of §6 (Tables 1-3, Figures 7-11), the
// dynamic-update and MultiBFS pool-width experiments, and the ablations
// suggested by §6.5 (traversal reduction), §2 (directed graphs) and §8
// (landmark selection). Experiments is the table of all of them;
// cmd/qbs-bench runs it and EXPERIMENTS.md is the committed output of one
// run, each section beside the claim it is held against.
//
// Each runner builds the required indexes over the synthetic dataset
// analogs, executes the workload, renders one markdown table to the
// configured writer and returns the raw rows for programmatic use.
//
// What a served request costs — build, query percentiles, allocations,
// store, replica and tracing overheads — is not measured here: that is
// `go run ./benchmark`, whose metrics BENCHMARK.json names.
//
// Absolute numbers differ from the paper (different hardware, graphs
// scaled ~10³ down); the harness is designed so the *shape* of each
// result — who wins, by what order of magnitude, where the trends bend —
// can be compared directly against the published tables.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"qbs/internal/datasets"
	"qbs/internal/graph"
)

// Config parameterises a harness run.
type Config struct {
	// Scale multiplies dataset analog sizes (1 = datasets.Spec.BaseVertices).
	Scale float64
	// NumQueries is the number of sampled pairs per dataset (paper: 10,000).
	NumQueries int
	// NumLandmarks is |R| for single-point experiments (paper: 20).
	NumLandmarks int
	// Datasets restricts the run to these keys (nil = all 12).
	Datasets []string
	// Seed drives workload sampling.
	Seed int64
	// PPLBudget and ParentPPLBudget bound baseline construction time,
	// reproducing the paper's 24h DNF cutoff at laptop scale.
	PPLBudget       time.Duration
	ParentPPLBudget time.Duration
	// LabelByteBudget bounds baseline labelling size, reproducing OOE.
	LabelByteBudget int64
	// Out receives rendered markdown (nil = io.Discard).
	Out io.Writer
}

// WithDefaults fills unset fields with the harness defaults.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 1000
	}
	if c.NumLandmarks <= 0 {
		c.NumLandmarks = 20
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datasets.Keys()
	}
	if c.Seed == 0 {
		c.Seed = 2021
	}
	if c.PPLBudget <= 0 {
		c.PPLBudget = 60 * time.Second
	}
	if c.ParentPPLBudget <= 0 {
		c.ParentPPLBudget = 60 * time.Second
	}
	if c.LabelByteBudget <= 0 {
		c.LabelByteBudget = 1 << 30 // 1 GiB of labels ≈ the paper's OOE wall, scaled
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Harness caches generated graphs across experiments in one process.
type Harness struct {
	cfg    Config
	graphs map[string]*graph.Graph
}

// New creates a harness.
func New(cfg Config) *Harness {
	return &Harness{cfg: cfg.WithDefaults(), graphs: map[string]*graph.Graph{}}
}

// Config returns the effective configuration.
func (h *Harness) Config() Config { return h.cfg }

// Graph returns (building lazily) the analog for a dataset key.
func (h *Harness) Graph(key string) (*graph.Graph, error) {
	if g, ok := h.graphs[key]; ok {
		return g, nil
	}
	spec, err := datasets.ByKey(key)
	if err != nil {
		return nil, err
	}
	g := spec.Generate(h.cfg.Scale)
	h.graphs[key] = g
	return g, nil
}

// table renders a markdown table.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "\n## %s\n\n", t.title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// Formatting helpers shared by the runners.

func fmtDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtBytes(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	}
}

func fmtCount(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// sortedKeys returns h's configured dataset keys in Table 1 order.
func (h *Harness) sortedKeys() []string {
	order := map[string]int{}
	for i, k := range datasets.Keys() {
		order[k] = i
	}
	keys := append([]string(nil), h.cfg.Datasets...)
	sort.Slice(keys, func(i, j int) bool { return order[keys[i]] < order[keys[j]] })
	return keys
}
