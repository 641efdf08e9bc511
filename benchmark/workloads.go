package main

import "fmt"

// workload is one named traffic mix against one server topology. Every
// field is a constant of the benchmark: the command line selects a
// workload by name and never alters one.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json and the README

	dataset  string  // internal/datasets key; the generator seed is fixed per key
	scale    float64 // dataset scale factor handed to the server and to the local copy
	directed bool    // qbs-server -directed (dcore stack)
	mutable  bool    // qbs-server -mutable -data: connection 2 carries paced writes
	routed   bool    // primary + replica + router; reads and writes go through the router

	zipf float64 // > 0: Zipf-distributed pair endpoints with this exponent; 0 = uniform pairs

	// openRate is the fixed arrival rate (requests/s) of the open-loop
	// phase: the round number nearest 30 % of the closed-loop qps measured
	// at the commit that added the benchmark, frozen here so later commits
	// are loaded identically.
	openRate float64
	// writeRate is the fixed rate of connection 2's writes (0 = none).
	writeRate float64
}

// The read mix shared by every workload.
const spgShare = 0.7 // GET /spg; the rest is GET /distance

var workloads = []workload{
	{
		name:     "yt-read",
		why:      "sparse hub-covered graph: kernel is a small share of the round trip, so server, analysis, JSON and net/http dominate",
		dataset:  "YT",
		scale:    10,
		openRate: 1400,
	},
	{
		name:     "fr-read",
		why:      "dense near-regular graph with poor landmark coverage: core search and per-vertex Distance calls dominate, not JSON",
		dataset:  "FR",
		scale:    2,
		openRate: 500,
	},
	{
		name:     "wk-directed",
		why:      "the dcore/DiSPG/handleDi* twin stack: an undirected-only change predicts no move here",
		dataset:  "WK",
		scale:    10,
		directed: true,
		openRate: 1200,
	},
	{
		name:      "yt-mixed",
		why:       "reads through dynamic epoch snapshots while paced writes repair the index and fsync the WAL beside them",
		dataset:   "YT",
		scale:     10,
		mutable:   true,
		openRate:  1400,
		writeRate: 40,
	},
	{
		name:      "yt-routed",
		why:       "primary+replica+router with Zipf pairs: router hop, WAL shipping, min_epoch failover; skew is where a hot-pair cache would show",
		dataset:   "YT",
		scale:     10,
		mutable:   true,
		routed:    true,
		zipf:      1.2,
		openRate:  1000,
		writeRate: 10,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
