package workload

import (
	"testing"

	"qbs/internal/graph"
)

func TestSamplePairsDeterministicDistinct(t *testing.T) {
	g := graph.Cycle(50)
	a := SamplePairs(g, 100, 7)
	b := SamplePairs(g, 100, 7)
	if len(a) != 100 {
		t.Fatalf("got %d pairs", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
		if a[i].U == a[i].V {
			t.Fatal("self pair sampled")
		}
	}
	c := SamplePairs(g, 100, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestSamplePairsTinyGraph(t *testing.T) {
	if got := SamplePairs(graph.Path(1), 10, 1); len(got) != 0 {
		t.Fatal("single-vertex graph must yield no pairs")
	}
}

func TestMeasureDistancesOnPath(t *testing.T) {
	g := graph.Path(5)
	pairs := []Pair{{0, 4}, {0, 1}, {1, 3}, {0, 4}}
	dd := MeasureDistances(g, pairs)
	if dd.Max != 4 {
		t.Fatalf("max = %d", dd.Max)
	}
	if dd.Counts[4] != 2 || dd.Counts[1] != 1 || dd.Counts[2] != 1 {
		t.Fatalf("counts = %v", dd.Counts)
	}
	if dd.Fraction[4] != 0.5 {
		t.Fatalf("fraction[4] = %f", dd.Fraction[4])
	}
	wantMean := (4.0 + 1 + 2 + 4) / 4
	if dd.Mean != wantMean {
		t.Fatalf("mean = %f want %f", dd.Mean, wantMean)
	}
}

func TestMeasureDistancesUnreachable(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, W: 1}, {U: 2, W: 3}})
	dd := MeasureDistances(g, []Pair{{0, 2}, {0, 1}})
	if dd.Unreachable != 1 {
		t.Fatalf("unreachable = %d", dd.Unreachable)
	}
}

func TestApproxAvgDistance(t *testing.T) {
	// Exact on a complete graph: every pair at distance 1.
	g := graph.Complete(20)
	if got := ApproxAvgDistance(g, 20, 1); got != 1 {
		t.Fatalf("avg dist on K20 = %f", got)
	}
	// Path graph: average distance from all sources = (n+1)/3 for large n.
	p := graph.Path(100)
	got := ApproxAvgDistance(p, 100, 1)
	if got < 30 || got > 37 {
		t.Fatalf("path avg dist = %f", got)
	}
}

func TestMixedOps(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 11)
	ops := MixedOps(g, 2000, 0.3, 42)
	if len(ops) != 2000 {
		t.Fatalf("got %d ops", len(ops))
	}
	q, ins, del := CountKinds(ops)
	if q == 0 || ins == 0 || del == 0 {
		t.Fatalf("kinds: q=%d ins=%d del=%d", q, ins, del)
	}
	writes := ins + del
	if ratio := float64(writes) / float64(len(ops)); ratio < 0.2 || ratio > 0.4 {
		t.Fatalf("write ratio %.2f far from requested 0.3", ratio)
	}
	// Replay against a mirror: every delete must hit an existing edge,
	// every insert a missing one.
	edges := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		edges[e] = true
	}
	for i, op := range ops {
		e := graph.Edge{U: op.U, W: op.V}.Normalize()
		switch op.Kind {
		case OpInsert:
			if edges[e] {
				t.Fatalf("op %d: insert of existing edge %v", i, e)
			}
			edges[e] = true
		case OpDelete:
			if !edges[e] {
				t.Fatalf("op %d: delete of missing edge %v", i, e)
			}
			delete(edges, e)
		case OpQuery:
			if op.U == op.V {
				t.Fatalf("op %d: degenerate query pair", i)
			}
		}
	}
	// Determinism.
	again := MixedOps(g, 2000, 0.3, 42)
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatalf("op %d differs between runs", i)
		}
	}
}
