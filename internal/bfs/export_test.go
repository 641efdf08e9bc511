package bfs

import "qbs/internal/graph"

// forceSteps makes every step of e's extractions take one form,
// whatever the rule would pick; byRule restores the rule.
func forceSteps(e *Extractor, form stepForm) { e.force = form }

// oneStep runs one extraction step in the given form from cur, the
// vertices at depth k ≥ 2 of side s, as the first step of an extraction
// from cur. It returns the arcs the step emits and the next step's
// vertices.
func oneStep(e *Extractor, push bool, s *Side, cur []graph.V, k int32) ([]graph.Arc, []graph.V) {
	e.mark.Reset()
	for _, x := range cur {
		e.mark.Mark(x)
	}
	if push {
		out, next, _ := e.pushStep(s, s.WS.RowsAhead(s.Push), nil, s.Level(k-1), nil)
		return out, next
	}
	out, next, _ := e.pullStep(s, s.WS.RowsAhead(s.pull), nil, cur, k, nil)
	return out, next
}
