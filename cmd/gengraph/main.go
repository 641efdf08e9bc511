// Command gengraph generates synthetic graphs — the Table 1 dataset
// analogs or parametric generator output — as text edge lists, the one
// graph file format. Vertices are numbered 0..n-1 and an edge list keeps
// those numbers when it is read back, so `qbs -graph` over the file
// answers the pairs `qbs -dataset` answers.
//
// Usage:
//
//	gengraph -dataset TW -scale 0.5 -o twitter.edges
//	gengraph -gen ba -n 100000 -m 5 -seed 7 > ba.edges
//
// The summary line on stderr gives the graph's size and, where
// /proc/self/status exists, the process's peak resident set once the
// graph is generated (peak_rss, VmHWM), before the edge list is written.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qbs/internal/datasets"
	"qbs/internal/graph"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "dataset analog key (DO,DB,YT,WK,SK,BA,LJ,OR,TW,FR,UK,CW)")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor")
		gen     = flag.String("gen", "", "parametric generator: er|ba|ws|grid")
		n       = flag.Int("n", 10000, "vertex count (parametric generators)")
		m       = flag.Int("m", 3, "edges per vertex (ba), edge count (er), ring degree (ws), columns (grid)")
		beta    = flag.Float64("beta", 0.2, "rewiring probability (ws)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output edge-list path (default stdout)")
	)
	flag.Parse()

	var g *graph.Graph
	switch {
	case *dataset != "":
		spec, err := datasets.ByKey(*dataset)
		if err != nil {
			fatal(err)
		}
		g = spec.Generate(*scale)
	case *gen != "":
		switch *gen {
		case "er":
			g = graph.ErdosRenyi(*n, *m, *seed)
		case "ba":
			g = graph.BarabasiAlbert(*n, *m, *seed)
		case "ws":
			g = graph.WattsStrogatz(*n, *m, *beta, *seed)
		case "grid":
			g = graph.Grid(*n, *m)
		default:
			fatal(fmt.Errorf("unknown generator %q", *gen))
		}
		lc, _ := g.LargestComponent()
		g = lc
	default:
		fatal(fmt.Errorf("one of -dataset or -gen is required"))
	}

	st := graph.ComputeStats(g)
	peak := ""
	if kb, ok := peakRSSKiB(); ok {
		peak = fmt.Sprintf(" peak_rss=%.1fMiB", float64(kb)/1024)
	}
	fmt.Fprintf(os.Stderr, "generated: |V|=%d |E|=%d maxdeg=%d avgdeg=%.2f%s\n",
		st.NumVertices, st.NumEdges, st.MaxDegree, st.AvgDegree, peak)

	if *out == "" {
		if err := graph.WriteEdgeList(os.Stdout, g); err != nil {
			fatal(err)
		}
		return
	}
	if err := graph.WriteEdgeListFile(*out, g); err != nil {
		fatal(err)
	}
}

// peakRSSKiB returns the process's peak resident set size so far (VmHWM
// in /proc/self/status), and false where that file or line is missing.
func peakRSSKiB() (int64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gengraph:", err)
	os.Exit(1)
}
