package bfs

import "qbs/internal/graph"

// forceSteps makes every step of e's extractions take one form,
// whatever the rule would pick; byRule restores the rule.
func forceSteps(e *Extractor, form stepForm) { e.force = form }

// oneStep runs one extraction step in the given form from cur, the
// vertices at depth k ≥ 2 of the side that ws and lv describe, as the
// first step of an extraction from cur. It returns the arcs the step
// emits (unflipped) and the next step's vertices.
func oneStep(e *Extractor, push bool, pushAdj, pull graph.Adjacency, ws *Workspace, lv Levels, cur []graph.V, k int32) ([]graph.Arc, []graph.V) {
	e.mark.Reset()
	for _, x := range cur {
		e.mark.Mark(x)
	}
	if push {
		out, next, _ := e.pushStep(pushAdj, ws.RowsAhead(pushAdj), false, nil, lv.level(k-1), nil)
		return out, next
	}
	out, next, _ := e.pullStep(pull, ws.RowsAhead(pull), ws, false, nil, cur, k, nil)
	return out, next
}
