package dynamic

import (
	"qbs/internal/core"
	"qbs/internal/graph"
)

// Incremental Δ maintenance. Δ[k] for meta-edge k = (a, b) is the
// shortest-path graph between landmarks a and b, read off the label
// columns by core's label walk: from a, along b's column, over the
// vertices v with lab_a(v) + lab_b(v) = σ(a, b). A meta-edge therefore
// only needs recomputation when (1) σ(a, b) changed (handled by snapshot
// realignment, which carries lists over only when the weight is
// unchanged), (2) some vertex's a- or b-label changed while the vertex
// participates before or after, or (3) the updated edge itself joins two
// participating vertices on consecutive levels, or attaches a
// participant to a landmark endpoint. A list that needs it is walked
// again over the updated overlay (core.Shell.FillDelta), at the cost of
// the rows of its own vertices; everything else is carried over from the
// previous snapshot by reference.

// dirtyDeltas returns the set of landmark-rank pairs (encoded a<<8|b
// with a < b) whose Δ list must be recomputed, given the label columns
// after and before the update (unchanged columns are shared), the
// update's label changes and the mutated edge {u, w}.
func dirtyDeltas(sh *core.Shell, lab, oldLab [][]uint8, sigma []uint8, changes []labelChange, u, w graph.V) map[int]struct{} {
	R := sh.NumLandmarks()
	dirty := map[int]struct{}{}
	mark := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		dirty[a<<8|b] = struct{}{}
	}

	// (2) label changes at participating vertices.
	for _, ch := range changes {
		a := ch.rank
		for b := 0; b < R; b++ {
			if b == a {
				continue
			}
			s := sigma[a*R+b]
			if s == core.NoEntry {
				continue
			}
			lbOld := oldLab[b][ch.v]
			lbNew := lab[b][ch.v]
			oldCand := ch.old != core.NoEntry && lbOld != core.NoEntry && int(ch.old)+int(lbOld) == int(s)
			newCand := ch.new != core.NoEntry && lbNew != core.NoEntry && int(ch.new)+int(lbNew) == int(s)
			if oldCand || newCand {
				mark(a, b)
			}
		}
	}

	// (3a) the mutated edge joining two participants on adjacent levels.
	for a := 0; a < R; a++ {
		lau, law := lab[a][u], lab[a][w]
		if lau == core.NoEntry || law == core.NoEntry {
			continue
		}
		if d := int(lau) - int(law); d != 1 && d != -1 {
			continue
		}
		for b := a + 1; b < R; b++ {
			s := sigma[a*R+b]
			if s == core.NoEntry {
				continue
			}
			lbu, lbw := lab[b][u], lab[b][w]
			if lbu == core.NoEntry || lbw == core.NoEntry {
				continue
			}
			if int(lau)+int(lbu) == int(s) && int(law)+int(lbw) == int(s) {
				mark(a, b)
			}
		}
	}

	// (3b) the mutated edge attaching a level-1 participant to a landmark
	// endpoint. In principle rule (2) already covers this — a level-1
	// label exists iff the direct landmark edge does, so mutating that
	// edge always produces a label change — but the O(R) check is kept as
	// cheap insurance against membership-invariant edge cases.
	markEndpoint := func(land, other graph.V) {
		a := sh.Rank(land)
		if a < 0 {
			return
		}
		for b := 0; b < R; b++ {
			if b == a {
				continue
			}
			s := sigma[a*R+b]
			if s == core.NoEntry {
				continue
			}
			la, lb := lab[a][other], lab[b][other]
			if la == 1 && lb != core.NoEntry && int(la)+int(lb) == int(s) {
				mark(a, b)
			}
		}
	}
	markEndpoint(u, w)
	markEndpoint(w, u)
	return dirty
}
