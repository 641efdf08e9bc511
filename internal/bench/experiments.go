package bench

// Experiment is one named entry of the evaluation.
type Experiment struct {
	Name string
	Doc  string // one line: what it measures and which claim it is held against
	Run  func(*Harness) error
}

// Experiments is the whole evaluation, in the order `-exp all` runs it.
// cmd/qbs-bench takes its -exp names, its help text and its dispatch from
// this table, and EXPERIMENTS.md has one section per entry
// (TestExperimentsRecordMatchesHarness).
var Experiments = []Experiment{
	{"table1", "Table 1: statistics of the dataset analogs beside the published ones",
		func(h *Harness) error { _, err := h.Table1(); return err }},
	{"table2", "Table 2: construction and mean query time, QbS-P/QbS vs PPL, ParentPPL and Bi-BFS",
		func(h *Harness) error { _, err := h.Table2(); return err }},
	{"table3", "Table 3: labelling sizes, QbS size(L) and size(Δ) vs PPL and ParentPPL",
		func(h *Harness) error { _, err := h.Table3(); return err }},
	{"fig7", "Figure 7: distance distribution of the sampled query pairs",
		func(h *Harness) error { _, err := h.Fig7(); return err }},
	{"fig8", "Figure 8: pair coverage ratio for |R| = 20..100",
		func(h *Harness) error { _, err := h.Fig8(nil); return err }},
	{"fig9", "Figure 9: labelling size for |R| = 20..100",
		func(h *Harness) error { _, err := h.Fig9(nil); return err }},
	{"fig10", "Figure 10: construction time for |R| = 5..100",
		func(h *Harness) error { _, err := h.Fig10(nil); return err }},
	{"fig11", "Figure 11: mean query time for |R| = 5..100",
		func(h *Harness) error { _, err := h.Fig11(nil); return err }},
	{"dynamic", "beyond the paper: incremental edge updates vs a full rebuild (YT when configured)",
		func(h *Harness) error { _, err := h.DynamicUpdates(nil); return err }},
	{"scaling", "§5.3: build and dynamic column rebuild at MultiBFS pool width 1/2/4/8, bit-identical at every width (YT, OR, FR when configured)",
		func(h *Harness) error { _, err := h.Scaling(nil); return err }},
	{"ablation-traversal", "§6.5: arcs scanned per query, Bi-BFS vs sparsified Bi-BFS vs guided QbS",
		func(h *Harness) error { _, err := h.AblationTraversal(); return err }},
	{"ablation-scale", "QbS vs Bi-BFS query time at 0.1x, 0.3x and 1x of -scale",
		func(h *Harness) error { _, err := h.AblationScale(nil); return err }},
	{"ablation-directed", "§2: directed QbS vs directed Bi-BFS on the datasets Table 1 marks directed",
		func(h *Harness) error { _, err := h.AblationDirected(); return err }},
	{"ablation-landmarks", "§8: degree, random, coverage and betweenness landmark selection",
		func(h *Harness) error { _, err := h.AblationLandmarks(); return err }},
}
