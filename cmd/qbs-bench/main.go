// Command qbs-bench regenerates the paper's evaluation: every table and
// figure of §6 plus the ablations, over the synthetic dataset analogs.
//
// Usage:
//
//	qbs-bench -exp table2 -scale 0.2 -queries 1000
//	qbs-bench -exp all -datasets DO,DB,YT -out results.md
//	qbs-bench -exp scaling -scale 1.0 -procs 8 -json scaling.json
//
// Experiments: table1, table2, table3, fig7, fig8, fig9, fig10, fig11,
// dynamic (incremental updates vs rebuild), traceoverhead (span-protocol
// cost on a warm query: drop path vs retain path), loadvsbuild (durable-store
// restart cost: snapshot open + WAL replay vs cold build; with -json it
// emits the BENCH_PR3.json record), replication (routed read QPS at
// 1/2/4 WAL-shipped replicas under a MixedOps write stream; with -json
// it emits the BENCH_PR5.json record), scaling (MultiBFS pool width
// 1/2/4/8 on the labelling build and the dynamic column rebuild, results
// checked bit-identical at every width; with -json it writes a
// qbs-bench-scaling/v2 record), ablation-traversal, ablation-parallel,
// ablation-landmarks, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"qbs/internal/bench"
	"qbs/internal/datasets"
	"qbs/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (table1|table2|table3|fig7|fig8|fig9|fig10|fig11|dynamic|traceoverhead|loadvsbuild|replication|scaling|ablation-traversal|ablation-parallel|ablation-landmarks|all)")
		scale     = flag.Float64("scale", 0.25, "dataset scale factor (1.0 = DESIGN.md sizes)")
		queries   = flag.Int("queries", 1000, "number of sampled query pairs per dataset")
		landmarks = flag.Int("landmarks", 20, "number of landmarks |R| for single-point experiments")
		keys      = flag.String("datasets", "", "comma-separated dataset keys (default: all 12)")
		seed      = flag.Int64("seed", 2021, "workload sampling seed")
		pplBudget = flag.Duration("ppl-budget", 60*time.Second, "PPL/ParentPPL construction time budget (DNF beyond)")
		outPath   = flag.String("out", "", "write markdown to this file as well as stdout")
		jsonPath  = flag.String("json", "", "write a perf snapshot (build time, query p50/p99, allocs/op) to this JSON file and exit; see README \"Performance\"")
		procs     = flag.Int("procs", 0, "set GOMAXPROCS for the run (0 = leave at the Go default); recorded in snapshot JSON")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	cfg := bench.Config{
		Scale:           *scale,
		NumQueries:      *queries,
		NumLandmarks:    *landmarks,
		Seed:            *seed,
		PPLBudget:       *pplBudget,
		ParentPPLBudget: *pplBudget,
		Out:             out,
	}
	if *keys != "" {
		for _, k := range strings.Split(*keys, ",") {
			k = strings.TrimSpace(k)
			if _, err := datasets.ByKey(k); err != nil {
				fatal(err)
			}
			cfg.Datasets = append(cfg.Datasets, k)
		}
	}
	if *jsonPath != "" && *exp == "loadvsbuild" {
		// Persistence snapshot mode: the BENCH_PR3.json record (snapshot
		// open time, WAL replay rate, vs cold build).
		if len(cfg.Datasets) == 0 {
			cfg.Datasets = []string{"DO", "YT", "FR"}
		}
		t0 := time.Now()
		if err := bench.New(cfg).LoadVsBuildJSON(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadvsbuild snapshot written to %s in %s\n",
			*jsonPath, time.Since(t0).Round(time.Millisecond))
		return
	}
	if *jsonPath != "" && *exp == "replication" {
		// Replication snapshot mode: the BENCH_PR5.json record (routed
		// read QPS at 1/2/4 replicas under a MixedOps write stream).
		if len(cfg.Datasets) == 0 {
			cfg.Datasets = []string{"YT"}
		}
		t0 := time.Now()
		if err := bench.New(cfg).ReplicaScalingJSON(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "replication snapshot written to %s in %s\n",
			*jsonPath, time.Since(t0).Round(time.Millisecond))
		return
	}
	if *exp == "scaling" {
		// Scaling mode: the MultiBFS pool width sweep (1/2/4/8 workers
		// across labelling build and dynamic column rebuild, with
		// bit-identical verification at every width). With -json it
		// writes the qbs-bench-scaling/v2 record.
		if len(cfg.Datasets) == 0 {
			cfg.Datasets = []string{"YT", "OR", "FR"}
		}
		t0 := time.Now()
		h := bench.New(cfg)
		if *jsonPath != "" {
			if err := h.ScalingJSON(*jsonPath, nil); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "scaling snapshot written to %s in %s\n",
				*jsonPath, time.Since(t0).Round(time.Millisecond))
		} else if _, err := h.Scaling(nil); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "scaling done in %s\n", time.Since(t0).Round(time.Millisecond))
		}
		return
	}
	if *jsonPath != "" {
		// Snapshot mode: the machine-readable perf record tracked across
		// PRs (BENCH_PR2.json and successors). Default to the three
		// representative Table 2 analogs unless -datasets was given.
		if len(cfg.Datasets) == 0 {
			cfg.Datasets = []string{"DO", "YT", "FR"}
		}
		t0 := time.Now()
		snap, err := bench.New(cfg).Snapshot()
		if err != nil {
			fatal(err)
		}
		if err := snap.WriteJSON(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot (%d datasets) written to %s in %s\n",
			len(snap.Datasets), *jsonPath, time.Since(t0).Round(time.Millisecond))
		return
	}

	h := bench.New(cfg)

	fmt.Fprintf(out, "# QbS evaluation (scale=%.2f, queries=%d, |R|=%d)\n",
		*scale, *queries, *landmarks)
	start := time.Now()
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		t0 := time.Now()
		fmt.Fprintf(os.Stderr, "running %s...\n", name)
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(os.Stderr, "%s done in %s\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", func() error { _, err := h.Table1(); return err })
	run("table2", func() error { _, err := h.Table2(); return err })
	run("table3", func() error { _, err := h.Table3(); return err })
	run("fig7", func() error { _, err := h.Fig7(); return err })
	run("fig8", func() error { _, err := h.Fig8(nil); return err })
	run("fig9", func() error { _, err := h.Fig9(nil); return err })
	run("fig10", func() error { _, err := h.Fig10(nil); return err })
	run("fig11", func() error { _, err := h.Fig11(nil); return err })
	run("dynamic", func() error { _, err := h.DynamicUpdates(nil); return err })
	run("traceoverhead", func() error { _, err := h.TraceOverhead(); return err })
	run("loadvsbuild", func() error { _, err := h.LoadVsBuild(); return err })
	if *exp == "replication" {
		// Not part of -exp all: it stands up live HTTP topologies and
		// measures wall-clock throughput, which needs a quiet host.
		if len(cfg.Datasets) == 0 {
			h = bench.New(withDatasets(cfg, []string{"YT"}))
		}
		run("replication", func() error { _, err := h.ReplicaScaling(bench.ReplicaScalingConfig{}); return err })
	}
	run("ablation-traversal", func() error { _, err := h.AblationTraversal(); return err })
	run("ablation-scale", func() error { _, err := h.AblationScale(nil); return err })
	run("ablation-directed", func() error { _, err := h.AblationDirected(); return err })
	run("ablation-parallel", func() error { _, err := h.AblationParallel(nil); return err })
	run("ablation-landmarks", func() error { _, err := h.AblationLandmarks(); return err })

	fmt.Fprintf(os.Stderr, "total: %s\n", time.Since(start).Round(time.Millisecond))
}

func withDatasets(c bench.Config, ds []string) bench.Config {
	c.Datasets = ds
	return c
}

func fatal(err error) {
	obs.DefaultJournal.Def("process", "error", obs.LevelError).
		Emit(obs.Str("stage", "fatal"), obs.Str("error", err.Error()))
	fmt.Fprintln(os.Stderr, "qbs-bench:", err)
	os.Exit(1)
}
