package qbs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchRecordsAreWhole parses every committed BENCH_*.json record of
// alternated parent/change benchmark runs. Every run's workload and
// metrics are ones BENCHMARK.json names, every (workload, pair) holds
// exactly one parent and one change run, and every run's line — the
// JSON the benchmark prints last — parses, answered correctly and
// failed nothing.
func TestBenchRecordsAreWhole(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = true
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json record (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Host, Parent, Change, Command string
			Runs                          []struct {
				Workload    string
				Seed        int64
				Tree        string
				Pair, Order int
				Line        string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if rec.Parent == "" || rec.Change == "" || len(rec.Runs) == 0 {
			t.Fatalf("%s: parent %q, change %q, %d runs", file, rec.Parent, rec.Change, len(rec.Runs))
		}
		type pair struct {
			workload string
			pair     int
		}
		sides := map[pair]map[string]int{}
		for i, run := range rec.Runs {
			if !workloads[run.Workload] {
				t.Errorf("%s run %d: workload %q is not one BENCHMARK.json names", file, i, run.Workload)
			}
			if run.Tree != "parent" && run.Tree != "change" {
				t.Errorf("%s run %d: tree %q", file, i, run.Tree)
			}
			k := pair{run.Workload, run.Pair}
			if sides[k] == nil {
				sides[k] = map[string]int{}
			}
			sides[k][run.Tree]++
			var line struct {
				Correct bool
				Failed  *int
				Metrics map[string]struct{ Value *float64 }
			}
			if err := json.Unmarshal([]byte(run.Line), &line); err != nil {
				t.Errorf("%s run %d: line does not parse: %v", file, i, err)
				continue
			}
			if line.Failed == nil {
				t.Errorf("%s run %d: line has no failed count", file, i)
			} else if !line.Correct || *line.Failed != 0 {
				t.Errorf("%s run %d (%s pair %d %s): correct=%v failed=%d", file, i, run.Workload, run.Pair, run.Tree, line.Correct, *line.Failed)
			}
			if len(line.Metrics) == 0 {
				t.Errorf("%s run %d: no metrics", file, i)
			}
			for name, m := range line.Metrics {
				if !metrics[name] || m.Value == nil {
					t.Errorf("%s run %d: metric %q is not one BENCHMARK.json names, or has no value", file, i, name)
				}
			}
		}
		for k, n := range sides {
			if n["parent"] != 1 || n["change"] != 1 {
				t.Errorf("%s: %s pair %d has %d parent and %d change runs, want one of each", file, k.workload, k.pair, n["parent"], n["change"])
			}
		}
	}
}
