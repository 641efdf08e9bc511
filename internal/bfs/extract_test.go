package bfs

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qbs/internal/graph"
	"qbs/internal/traverse"
)

// growSide grows a forward side from root over push (pull its reverse)
// to completed depth at most maxD. The vertices of removed carry the
// landmark sentinel, depth −1, as the guided search's removed landmarks
// do.
func growSide(push, pull graph.Adjacency, root graph.V, removed []graph.V, maxD int32) *Side {
	s := &Side{Push: push, pull: pull, WS: NewWorkspace(push.NumVertices())}
	s.reset(root)
	for _, r := range removed {
		if r != root {
			s.WS.SetDist(r, -1)
		}
	}
	for s.D < maxD {
		s.arena, _, _ = traverse.ExpandMeeting(push, s.WS, nil, s.Level(s.D), s.D, s.arena, nil, false, false)
		if int(s.off[s.D+1]) == len(s.arena) {
			break
		}
		s.off = append(s.off, int32(len(s.arena)))
		s.D++
	}
	return s
}

// modelExtract is the reverse search by sets: from the given vertices at
// depth k, the arcs y→x of push with x in the current set and y one
// level down, the set of those y next, and root→x at depth 1.
func modelExtract(f *Side, from []graph.V) []graph.Arc {
	cur := map[graph.V]bool{}
	for _, x := range from {
		cur[x] = true
	}
	var arcs []graph.Arc
	for k := f.WS.Dist(from[0]); k >= 1 && len(cur) > 0; k-- {
		next := map[graph.V]bool{}
		for _, y := range f.Level(k - 1) {
			for _, x := range f.Push.Neighbors(y) {
				if cur[x] {
					arcs = append(arcs, graph.Arc{From: y, To: x})
					next[y] = true
				}
			}
		}
		cur = next
	}
	return sortedArcs(arcs)
}

func sortedArcs(arcs []graph.Arc) []graph.Arc {
	arcs = slices.Clone(arcs)
	slices.SortFunc(arcs, func(a, b graph.Arc) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return arcs
}

// TestExtractStepFormsAgree holds the two forms of an extraction step
// to each other and whole extractions to the set model, on random
// undirected and directed graphs with landmark sentinels: from random
// subsets of every level, a pull step and a push step emit the same
// arcs and hand the same vertices to the next step, and an extraction
// with every step forced to one form, or left to the rule, emits the
// model's arcs, oriented as the side's arcs lie (a backward side
// reverses them).
func TestExtractStepFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	type graphCase struct {
		name       string
		push, pull graph.Adjacency
	}
	var cases []graphCase
	for i := 0; i < 6; i++ {
		n := 200 + rng.Intn(600)
		und := graph.ErdosRenyi(n, n*(2+rng.Intn(6)), int64(i))
		dir := graph.DirectedErdosRenyi(n, n*(3+rng.Intn(8)), int64(i))
		cases = append(cases,
			graphCase{fmt.Sprintf("er%d", i), und, und},
			graphCase{fmt.Sprintf("der%d-fwd", i), dir.OutView(), dir.InView()},
			graphCase{fmt.Sprintf("der%d-bwd", i), dir.InView(), dir.OutView()})
	}
	steps, pushSteps := 0, 0
	for _, c := range cases {
		n := c.push.NumVertices()
		e := NewExtractor(n)
		for q := 0; q < 20; q++ {
			removed := make([]graph.V, rng.Intn(8))
			for i := range removed {
				removed[i] = graph.V(rng.Intn(n))
			}
			root := graph.V(rng.Intn(n))
			f := growSide(c.push, c.pull, root, removed, int32(1+rng.Intn(6)))
			for k := int32(1); k <= f.D; k++ {
				level := f.Level(k)
				from := slices.Clone(level)
				rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
				from = from[:1+rng.Intn(len(from))]
				label := fmt.Sprintf("%s root %d depth %d, %d of %d vertices", c.name, root, k, len(from), len(level))

				if k >= 2 {
					pullArcs, pullNext := oneStep(e, false, f, from, k)
					pushArcs, pushNext := oneStep(e, true, f, from, k)
					if !slices.Equal(sortedArcs(pullArcs), sortedArcs(pushArcs)) {
						t.Fatalf("%s: a pull step emits %v, a push step %v", label, sortedArcs(pullArcs), sortedArcs(pushArcs))
					}
					slices.Sort(pullNext)
					slices.Sort(pushNext)
					if !slices.Equal(pullNext, pushNext) {
						t.Fatalf("%s: a pull step goes on to %v, a push step to %v", label, pullNext, pushNext)
					}
					steps++
					if len(f.Level(k-1)) <= len(from) {
						pushSteps++
					}
				}

				want := modelExtract(f, from)
				for form, name := range map[stepForm]string{allPull: "pull", allPush: "push", byRule: "rule"} {
					forceSteps(e, form)
					for _, flip := range []bool{false, true} {
						f.backward = flip
						got, arcs := e.Extract(f, nil, from)
						if flip {
							for i, a := range got {
								got[i] = graph.Arc{From: a.To, To: a.From}
							}
						}
						if !slices.Equal(sortedArcs(got), want) {
							t.Fatalf("%s, %s steps, flip %v: extracted %v, want %v", label, name, flip, sortedArcs(got), want)
						}
						if k >= 2 && arcs == 0 {
							t.Fatalf("%s, %s steps: no arc counted", label, name)
						}
					}
				}
				forceSteps(e, byRule)
				f.backward = false
			}
		}
	}
	if pushSteps == 0 || pushSteps == steps {
		t.Fatalf("the rule picks push for %d of %d first steps: both forms must occur", pushSteps, steps)
	}
	t.Logf("%d first steps, %d of them push by the rule", steps, pushSteps)
}
