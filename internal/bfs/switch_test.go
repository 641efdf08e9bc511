package bfs

import (
	"math/rand"
	"testing"

	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// TestGuidedLevelsStayBelowSwitch is core's test of the same name for
// the Bi-BFS baseline, which searches the whole graph with no sketch to
// bound it: on the four densest dataset analogs no level either side
// expands from satisfies Beamer's switch predicate
//
//	|frontier|·β ≥ |V|  ∧  Σdeg(frontier)·α > |arcs|
//
// at MultiBFS's thresholds. A side expands from all its levels but the
// outermost, and from that one too if it is the side that met the other.
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
		b := NewBidirectional(g)
		n, arcs := g.NumVertices(), int64(g.NumArcs())
		rng := rand.New(rand.NewSource(17))
		var expanded, idleOver int
		var largest float64 // largest expanded frontier as a fraction of |V|
		for q := 0; q < 1000; q++ {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			if u == v {
				continue
			}
			b.run(u, v)
			var met *Side
			if len(b.s.Cross) > 0 {
				met = &b.s.Bwd
				if b.s.Fwd.WS.Seen(b.s.Cross[0].From) {
					met = &b.s.Fwd
				}
			}
			for _, side := range [2]*Side{&b.s.Fwd, &b.s.Bwd} {
				size, mass := make([]int64, side.D+1), make([]int64, side.D+1) // per depth
				for i := range size {
					level := side.Level(int32(i))
					size[i] = int64(len(level))
					for _, x := range level {
						mass[i] += int64(g.Degree(x))
					}
				}
				for i := range size {
					over := size[i]*traverse.DefaultBeta >= int64(n) && mass[i]*traverse.DefaultAlpha > arcs
					if int32(i) == side.D && side != met {
						if over {
							idleOver++
						}
						continue
					}
					expanded++
					largest = max(largest, float64(size[i])/float64(n))
					if over {
						t.Fatalf("%s (%d,%d): level %d, %d of %d vertices, was expanded from: the direction switch would have fired",
							key, u, v, i, size[i], n)
					}
				}
			}
		}
		t.Logf("%s |V|=%d: %d levels expanded from, the largest %.4f of |V| (β asks for %.4f); %d outermost levels over the threshold, none expanded",
			key, n, expanded, largest, 1/float64(traverse.DefaultBeta), idleOver)
	}
}
