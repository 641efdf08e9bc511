package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/workload"
)

// Multicore scaling experiment: sweep the traverse pool width over
// {1, 2, 4, 8} and measure the two phases that ride on the parallel
// MultiBFS kernels — labelling build and dynamic column rebuild —
// checking at each width that the results are bit-identical to the
// sequential run. Absolute speedups only mean something on a machine
// with that many cores (qbs-bench prints num_cpu in its header for
// exactly that reason); the bit-identical column must hold everywhere.

// ScalingPhase is one pool width's measurements on one dataset.
type ScalingPhase struct {
	Workers int

	BuildNs  int64 // best-of-N core.Build (labelling + meta + Δ)
	RepairNs int64 // dynamic write stream with budget-1 column rebuilds

	BuildSpeedup  float64 // sequential / this width
	RepairSpeedup float64

	// Identical reports that this width reproduced the sequential run
	// bit for bit: serialized index (landmarks, σ, labels — Δ derives
	// deterministically from those) and post-churn dynamic query answers.
	Identical bool
}

// ScalingDataset is one dataset's sweep.
type ScalingDataset struct {
	Key      string
	Vertices int
	Edges    int

	// IndexSHA256 fingerprints the sequential build; every other width
	// must reproduce it exactly.
	IndexSHA256 string

	Phases []ScalingPhase
}

// scalingReps is best-of-N for the build timing.
const scalingReps = 3

// scalingWrites is the length of the dynamic write stream timed per
// width. RepairBudget 1 forces essentially every deletion through the
// full column re-BFS path, which is the parallel kernel under test.
const scalingWrites = 32

// scalingKeys picks the experiment's datasets: the configured ones among
// YT, OR and FR (sparse-hubby, dense, and flat-degree; each width costs
// scalingReps builds plus a write stream), otherwise every configured key.
func (h *Harness) scalingKeys() []string {
	all := h.sortedKeys()
	var keys []string
	for _, k := range all {
		if k == "YT" || k == "OR" || k == "FR" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return all
	}
	return keys
}

// Scaling measures build and repair latency across traverse pool widths
// (nil = 1, 2, 4, 8) and verifies bit-identical results at every width.
func (h *Harness) Scaling(workers []int) ([]ScalingDataset, error) {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	var rows []ScalingDataset
	tbl := &table{
		title: "Scaling — labelling build and dynamic column rebuild by MultiBFS pool width",
		header: []string{"Dataset", "|V|", "|E|", "workers", "build", "build speedup",
			"repair", "repair speedup", "identical"},
	}
	for _, key := range h.scalingKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		row, err := scalingDataset(key, g, h.cfg, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		for _, ph := range row.Phases {
			tbl.add(key, fmtCount(row.Vertices), fmtCount(row.Edges),
				fmt.Sprintf("%d", ph.Workers),
				fmtDuration(time.Duration(ph.BuildNs)), fmtSpeedup(ph.BuildSpeedup),
				fmtDuration(time.Duration(ph.RepairNs)), fmtSpeedup(ph.RepairSpeedup),
				fmt.Sprintf("%v", ph.Identical))
		}
	}
	tbl.render(h.cfg.Out)
	return rows, nil
}

func scalingDataset(key string, g *graph.Graph, cfg Config, workers []int) (ScalingDataset, error) {
	row := ScalingDataset{Key: key, Vertices: g.NumVertices(), Edges: g.NumEdges()}
	pairs := workload.SamplePairs(g, cfg.NumQueries, cfg.Seed)

	// Reference run at every width; index 0 must be the sequential one
	// the others are checked against.
	if workers[0] != 1 {
		workers = append([]int{1}, workers...)
	}
	var base *scalingRef
	for _, w := range workers {
		ph, ref, err := scalingPhase(g, cfg, w, pairs)
		if err != nil {
			return row, err
		}
		if base == nil {
			base = ref
			row.IndexSHA256 = ref.indexSHA
			ph.Identical = true
		} else {
			ph.Identical = *ref == *base
			ph.BuildSpeedup = ratio(row.Phases[0].BuildNs, ph.BuildNs)
			ph.RepairSpeedup = ratio(row.Phases[0].RepairNs, ph.RepairNs)
		}
		row.Phases = append(row.Phases, ph)
	}
	return row, nil
}

// scalingRef holds one width's result fingerprints.
type scalingRef struct {
	indexSHA  string
	repairSHA string
}

func scalingPhase(g *graph.Graph, cfg Config, w int, pairs []workload.Pair) (ScalingPhase, *scalingRef, error) {
	ph := ScalingPhase{Workers: w}
	ref := &scalingRef{}

	// Phase 1: labelling build at pool width w, best of scalingReps.
	var ix *core.Index
	for rep := 0; rep < scalingReps; rep++ {
		t0 := time.Now()
		built, err := core.Build(g, core.Options{NumLandmarks: cfg.NumLandmarks, Parallelism: w})
		if err != nil {
			return ph, nil, err
		}
		if d := time.Since(t0).Nanoseconds(); rep == 0 || d < ph.BuildNs {
			ph.BuildNs = d
		}
		ix = built
	}
	ref.indexSHA = indexSHA(ix)

	// Phase 2: dynamic churn with RepairBudget 1, so deletions fall
	// through to the full column re-BFS (the parallel rebuild path).
	d, err := dynamic.New(g, g.TopDegreeVertices(cfg.NumLandmarks), dynamic.Options{
		RepairBudget:    1,
		CompactFraction: -1,
		Parallelism:     w,
	})
	if err != nil {
		return ph, nil, err
	}
	ops := workload.MixedOps(g, scalingWrites, 1.0, cfg.Seed)
	t0 := time.Now()
	for _, op := range ops {
		switch op.Kind {
		case workload.OpInsert:
			_, err = d.AddEdge(op.U, op.V)
		case workload.OpDelete:
			_, err = d.RemoveEdge(op.U, op.V)
		default:
			continue
		}
		if err != nil {
			return ph, nil, fmt.Errorf("scaling dynamic op {%d,%d}: %w", op.U, op.V, err)
		}
	}
	ph.RepairNs = time.Since(t0).Nanoseconds()
	hr := sha256.New()
	nq := len(pairs)
	if nq > 128 {
		nq = 128
	}
	for _, p := range pairs[:nq] {
		hashSPG(hr, d.Query(p.U, p.V))
	}
	ref.repairSHA = hex.EncodeToString(hr.Sum(nil))
	return ph, ref, nil
}

// indexSHA hashes the index state in a fixed order: landmarks, the σ
// matrix, then every label column (to-labels, then from-labels). Δ and
// the meta table derive deterministically from those (Lemma 5.2), so
// this is a complete result fingerprint.
func indexSHA(ix *core.Index) string {
	st := ix.State()
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, st.Landmarks)
	h.Write(st.Sigma)
	for _, cols := range [][][]uint8{st.LabelTo, st.LabelFrom} {
		for _, col := range cols {
			h.Write(col)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashSPG folds a canonicalized SPG — endpoints, distance, edge list —
// into h.
func hashSPG(h interface{ Write(p []byte) (int, error) }, s *graph.SPG) {
	s.Canonicalize()
	var buf [8]byte
	put := func(a, b int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(a))
		binary.LittleEndian.PutUint32(buf[4:], uint32(b))
		h.Write(buf[:])
	}
	put(int32(s.Source), int32(s.Target))
	put(s.Dist, int32(s.NumEdges()))
	for _, e := range s.Edges() {
		put(int32(e.U), int32(e.W))
	}
}

func ratio(base, got int64) float64 {
	if got <= 0 {
		return 0
	}
	return float64(base) / float64(got)
}

func fmtSpeedup(x float64) string {
	if x == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f×", x)
}
