package core

import (
	"testing"

	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// TestGuidedLevelsStayBelowSwitch is the measurement behind the guided
// search having one expansion kernel, kept executable: on the four
// densest dataset analogs no level either side expands from is large
// enough for Beamer's direction switch, under the thresholds MultiBFS
// switches at, so a bottom-up kernel would never run —
//
//	|frontier|·β ≥ |V|  ∧  Σdeg(frontier)·α > |arcs|
//
// is false for every one of them. The levels a side expands from are
// all but its outermost, plus the outermost of the side whose expansion
// met the other: a bidirectional search never expands its last and
// largest levels, and those (logged, not asserted) do get past the
// threshold now and then. If a change to the search or to the analogs
// makes the predicate true, the decision to expand top-down only is up
// for review, and this test says on which graph.
func TestGuidedLevelsStayBelowSwitch(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("scale-1 analogs; a sequential measurement the race detector adds nothing to")
	}
	for _, key := range []string{"OR", "FR", "TW", "UK"} {
		spec, err := datasets.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Generate(1)
		ix, err := Build(g, Options{NumLandmarks: 20})
		if err != nil {
			t.Fatal(err)
		}
		sr := NewSearcher(ix)
		n, arcs := int64(g.NumVertices()), int64(g.NumArcs())
		wouldSwitch := func(level []graph.V) (bool, float64) {
			var mass int64
			for _, x := range level {
				mass += int64(g.Degree(x))
			}
			return int64(len(level))*traverse.DefaultBeta >= n && mass*traverse.DefaultAlpha > arcs, float64(len(level)) / float64(n)
		}
		var expanded, idleOver int
		var largest float64 // largest expanded frontier as a fraction of |V|
		for _, p := range randomPairs(int(n), 1000, 17) {
			if p[0] == p[1] {
				continue // answered before any search
			}
			st := sr.query(p[0], p[1], true)
			var met *searchSide
			if st.UsedReverse {
				met = &sr.bwd
				if sr.fwd.WS.Seen(sr.bs.Cross[0].From) {
					met = &sr.fwd
				}
			}
			for _, side := range [2]*searchSide{&sr.fwd, &sr.bwd} {
				for i := int32(0); i <= side.D; i++ {
					over, frac := wouldSwitch(side.Level(i))
					if i == side.D && side != met {
						if over {
							idleOver++
						}
						continue
					}
					expanded++
					largest = max(largest, frac)
					if over {
						t.Fatalf("%s (%d,%d): level %d, %d of %d vertices, was expanded from: the direction switch would have fired",
							key, p[0], p[1], i, len(side.Level(i)), n)
					}
				}
			}
		}
		t.Logf("%s |V|=%d: %d levels expanded from, the largest %.4f of |V| (β asks for %.4f); %d outermost levels over the threshold, none expanded",
			key, n, expanded, largest, 1/float64(traverse.DefaultBeta), idleOver)
	}
}
