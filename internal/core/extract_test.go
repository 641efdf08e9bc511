package core

import (
	"fmt"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/datasets"
	"qbs/internal/graph"
)

// levelBelowSteps counts the steps of the reverse extraction after sr's
// last answer that scanned the level below (bfs.Extractor's rule: level
// k−1 no larger than the vertices extracted at depth k). It is read off
// the answer, for a pair whose answer avoids every landmark: there, the
// vertices a side extracts at its depth k are exactly the answer's
// vertices at that depth.
func levelBelowSteps(sr *Searcher, answer *graph.SPG) int {
	steps := 0
	for _, side := range [2]*searchSide{&sr.fwd, &sr.bwd} {
		at := make([]int, side.D+1)
		for _, x := range answer.Vertices() {
			if k := side.WS.Dist(x); k >= 0 && k <= side.D {
				at[k]++
			}
		}
		for k := int32(2); k <= side.D; k++ {
			if at[k] > 0 && len(side.Level(k-1)) <= at[k] {
				steps++
			}
		}
	}
	return steps
}

// TestLevelBelowStepMatchesOracle answers distance-4 pairs of the FR
// analog — the pairs whose answers make the tail of its /spg latency;
// at this scale uniform pairs are at most three apart, so they are
// found by BFS from the first few vertices — and holds those on which
// an extraction step scanned the level below to the oracle: the same
// edge set, and every arc the search emitted oriented away from the
// source, one level at a time (the undirected answer forgets
// orientation, the emitted arcs do not).
func TestLevelBelowStepMatchesOracle(t *testing.T) {
	spec, err := datasets.ByKey("FR")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(0.25)
	sr := NewSearcher(MustBuild(g, Options{}))
	spg := new(graph.SPG)
	fired, checked := 0, 0
	for u := graph.V(0); u < 16; u++ {
		fromU := bfs.Distances(g, u)
		for v, d := range fromU {
			if d != 4 {
				continue
			}
			st := sr.QueryInto(spg, u, graph.V(v))
			if st.Coverage != CoverageNone {
				continue
			}
			checked++
			if levelBelowSteps(sr, spg) == 0 {
				continue
			}
			fired++
			label := fmt.Sprintf("(%d,%d)", u, v)
			if want := bfs.OracleSPG(g, u, graph.V(v)); !spg.Equal(want) {
				t.Fatalf("%s: got %v\nwant %v", label, spg, want)
			}
			for _, a := range sr.out {
				if fromU[a.From]+1 != fromU[a.To] {
					t.Fatalf("%s: emitted %d→%d, at distances %d and %d from the source", label, a.From, a.To, fromU[a.From], fromU[a.To])
				}
			}
		}
	}
	if fired == 0 {
		t.Fatalf("no level-below step among %d distance-4 pairs", checked)
	}
	t.Logf("%d of %d distance-4 pairs avoiding the landmarks took a level-below step", fired, checked)
}
