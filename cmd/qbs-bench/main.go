// Command qbs-bench regenerates the paper's evaluation over the synthetic
// dataset analogs: Tables 1-3 and Figures 7-11 of §6, the dynamic-update
// and pool-width experiments, and the ablations. The experiments are the
// table bench.Experiments (`qbs-bench -h` lists them); EXPERIMENTS.md is
// the committed output of one run, each section held against the paper's
// claim. What a served request costs, layer by layer, is measured by
// `go run ./benchmark`, not here.
//
// Usage:
//
//	qbs-bench -exp table2 -scale 4 -queries 1000
//	qbs-bench -exp all -datasets DO,DB,YT -out results.md
package main

import (
	"errors"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		obs.DefaultJournal.Def("process", "error", obs.LevelError).
			Emit(obs.Str("stage", "fatal"), obs.Str("error", err.Error()))
		fmt.Fprintln(os.Stderr, "qbs-bench:", err)
		os.Exit(1)
	}
}

// expNames lists bench.Experiments by name, in table order.
func expNames() []string {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	return names
}

// expUsage is the -exp help text: one line per table entry.
func expUsage() string {
	var b strings.Builder
	b.WriteString("experiment to run: all, or one of")
	for _, e := range bench.Experiments {
		fmt.Fprintf(&b, "\n  %-18s  %s", e.Name, e.Doc)
	}
	return b.String()
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("qbs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", expUsage())
		scale     = fs.Float64("scale", 0.25, "dataset scale factor (1.0 = the BaseVertices of internal/datasets)")
		queries   = fs.Int("queries", 1000, "number of sampled query pairs per dataset")
		landmarks = fs.Int("landmarks", 20, "number of landmarks |R| for single-point experiments")
		keys      = fs.String("datasets", "", "comma-separated dataset keys (default: all 12)")
		seed      = fs.Int64("seed", 2021, "workload sampling seed")
		pplBudget = fs.Duration("ppl-budget", 60*time.Second, "PPL/ParentPPL construction time budget (DNF beyond)")
		outPath   = fs.String("out", "", "write markdown to this file as well as stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	todo := bench.Experiments
	if *exp != "all" {
		todo = nil
		for _, e := range bench.Experiments {
			if e.Name == *exp {
				todo = []bench.Experiment{e}
				break
			}
		}
		if todo == nil {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)", *exp, strings.Join(expNames(), ", "))
		}
	}

	cfg := bench.Config{
		Scale:           *scale,
		NumQueries:      *queries,
		NumLandmarks:    *landmarks,
		Seed:            *seed,
		PPLBudget:       *pplBudget,
		ParentPPLBudget: *pplBudget,
	}
	if *keys != "" {
		for _, k := range strings.Split(*keys, ",") {
			k = strings.TrimSpace(k)
			if _, err := datasets.ByKey(k); err != nil {
				return err
			}
			cfg.Datasets = append(cfg.Datasets, k)
		}
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = io.MultiWriter(stdout, f)
	}
	cfg.Out = out
	h := bench.New(cfg)

	fmt.Fprintf(out, "# QbS evaluation\n\n")
	fmt.Fprintf(out, "- command: `qbs-bench %s`\n", strings.Join(args, " "))
	fmt.Fprintf(out, "- host: %s %s/%s, num_cpu=%d, gomaxprocs=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "- scale=%g, queries=%d, |R|=%d, seed=%d, ppl-budget=%s, datasets=%s\n",
		*scale, *queries, *landmarks, *seed, *pplBudget, strings.Join(h.Config().Datasets, ","))

	start := time.Now()
	for _, e := range todo {
		t0 := time.Now()
		fmt.Fprintf(stderr, "running %s...\n", e.Name)
		if err := e.Run(h); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintf(stderr, "%s done in %s\n", e.Name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(stderr, "total: %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
