package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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
// with that many cores (NumCPU is recorded in the snapshot for exactly
// that reason); the bit-identical column must hold everywhere.

// ScalingSchema identifies the scaling snapshot's format version.
const ScalingSchema = "qbs-bench-scaling/v2"

// ScalingPhase is one pool width's measurements on one dataset.
type ScalingPhase struct {
	Workers int `json:"workers"`

	BuildNs  int64 `json:"build_ns"`  // best-of-N core.Build (labelling + meta + Δ)
	RepairNs int64 `json:"repair_ns"` // dynamic write stream with budget-1 column rebuilds

	BuildSpeedup  float64 `json:"build_speedup"` // sequential / this width
	RepairSpeedup float64 `json:"repair_speedup"`

	// Identical reports that this width reproduced the sequential run
	// bit for bit: serialized index (landmarks, σ, labels — Δ derives
	// deterministically from those) and post-churn dynamic query answers.
	Identical bool `json:"identical"`
}

// ScalingDataset is one dataset block of the scaling snapshot.
type ScalingDataset struct {
	Key      string `json:"key"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`

	// IndexSHA256 fingerprints the sequential build; every other width
	// must reproduce it exactly.
	IndexSHA256 string `json:"index_sha256"`

	Phases []ScalingPhase `json:"phases"`
}

// ScalingSnapshot is the machine-readable scaling record. NumCPU
// captures whether the measuring host could physically exhibit parallel
// speedup; on a single-core box the expected speedup at every width is
// ~1× and only the bit-identical columns carry information.
type ScalingSnapshot struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Scale      float64 `json:"scale"`
	Queries    int     `json:"queries"`
	Landmarks  int     `json:"landmarks"`
	Seed       int64   `json:"seed"`

	Workers  []int            `json:"workers"`
	Datasets []ScalingDataset `json:"datasets"`
}

// scalingReps is best-of-N for the build timing (same convention as the
// perf snapshot's buildReps, fewer reps because the scaling run
// multiplies everything by the number of widths).
const scalingReps = 3

// scalingWrites is the length of the dynamic write stream timed per
// width. RepairBudget 1 forces essentially every deletion through the
// full column re-BFS path, which is the parallel kernel under test.
const scalingWrites = 32

// Scaling measures build and repair latency across traverse pool widths
// (nil = 1, 2, 4, 8) on the configured datasets and verifies
// bit-identical results at every width. Driven by `qbs-bench -exp
// scaling` and by tests.
func (h *Harness) Scaling(workers []int) (*ScalingSnapshot, error) {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	cfg := h.cfg
	s := &ScalingSnapshot{
		Schema:     ScalingSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      cfg.Scale,
		Queries:    cfg.NumQueries,
		Landmarks:  cfg.NumLandmarks,
		Seed:       cfg.Seed,
		Workers:    workers,
	}
	for _, key := range h.sortedKeys() {
		g, err := h.Graph(key)
		if err != nil {
			return nil, err
		}
		row, err := scalingDataset(key, g, cfg, workers)
		if err != nil {
			return nil, err
		}
		s.Datasets = append(s.Datasets, row)
	}
	h.renderScaling(s)
	return s, nil
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
	sha, err := indexSHA(ix)
	if err != nil {
		return ph, nil, err
	}
	ref.indexSHA = sha

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

// indexSHA hashes the serialized index: landmarks, the σ matrix and
// the full label matrix. Δ and the meta table derive deterministically
// from those (Lemma 5.2), so this is a complete result fingerprint.
func indexSHA(ix *core.Index) (string, error) {
	h := sha256.New()
	if err := ix.Write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
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

// renderScaling prints the snapshot as markdown tables.
func (h *Harness) renderScaling(s *ScalingSnapshot) {
	for _, ds := range s.Datasets {
		tbl := &table{
			title: fmt.Sprintf("Scaling %s (|V|=%s, |E|=%s, NumCPU=%d)",
				ds.Key, fmtCount(ds.Vertices), fmtCount(ds.Edges), s.NumCPU),
			header: []string{"workers", "build", "speedup", "repair", "speedup", "identical"},
		}
		for _, ph := range ds.Phases {
			tbl.add(
				fmt.Sprintf("%d", ph.Workers),
				fmtDuration(time.Duration(ph.BuildNs)), fmtSpeedup(ph.BuildSpeedup),
				fmtDuration(time.Duration(ph.RepairNs)), fmtSpeedup(ph.RepairSpeedup),
				fmt.Sprintf("%v", ph.Identical),
			)
		}
		tbl.render(h.cfg.Out)
	}
}

func fmtSpeedup(x float64) string {
	if x == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f×", x)
}

// ScalingJSON runs the scaling experiment and writes its snapshot to
// path.
func (h *Harness) ScalingJSON(path string, workers []int) error {
	s, err := h.Scaling(workers)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
