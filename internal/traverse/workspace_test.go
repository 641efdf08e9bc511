package traverse

import (
	"math/rand"
	"testing"

	"qbs/internal/graph"
)

// The workspace is checked against the obvious model: a map from vertex
// to depth, emptied by Reset. Everything the bitsets, the touched log
// and the deferred depth store do must be invisible through
// Seen/Dist/SetDist.

func checkAgainstModel(t *testing.T, ws *Workspace, model map[graph.V]int32, n int, when string) {
	t.Helper()
	for v := graph.V(0); int(v) < n; v++ {
		want, ok := model[v]
		if !ok {
			want = Infinity
		}
		if ws.Seen(v) != ok || ws.Dist(v) != want {
			t.Fatalf("%s: vertex %d: Seen=%v Dist=%d, model seen=%v dist=%d",
				when, v, ws.Seen(v), ws.Dist(v), ok, want)
		}
	}
}

func TestWorkspaceModelRandomOps(t *testing.T) {
	const n = 64*40 + 17 // 41 words: the log's cap
	ws := NewWorkspace(n)
	limit := cap(ws.seen.touched)
	if limit != (n+63)/64 {
		t.Fatalf("touched log sized %d, want one entry per bitmap word (%d)", limit, (n+63)/64)
	}
	rng := rand.New(rand.NewSource(1))
	model := map[graph.V]int32{}
	var sparse, full int
	for round := 0; round < 12000; round++ {
		// Reset, then a burst of SetDists sized to land on both sides of
		// the full-clear threshold, and on it.
		if ws.seen.full() {
			full++
		} else {
			sparse++
		}
		ws.Reset()
		clear(model)
		var marks int
		switch round % 6 {
		case 0:
			marks = rng.Intn(4)
		case 1:
			marks = limit - 1
		case 2:
			marks = limit
		case 3:
			marks = limit + 1
		default:
			marks = rng.Intn(3 * limit)
		}
		for i := 0; i < marks; i++ {
			v := graph.V(rng.Intn(n))
			d := int32(rng.Intn(8)) - 1 // includes the -1 landmark sentinel
			ws.SetDist(v, d)            // re-setting a seen vertex overwrites, as before
			model[v] = d
			if !ws.Seen(v) || ws.Dist(v) != d {
				t.Fatalf("round %d: SetDist(%d, %d) read back Seen=%v Dist=%d", round, v, d, ws.Seen(v), ws.Dist(v))
			}
		}
		if wantFull := marks >= limit; ws.seen.full() != wantFull {
			t.Fatalf("round %d: %d marks against a log of %d: full=%v", round, marks, limit, ws.seen.full())
		}
		if round%97 == 0 || marks >= limit-1 && marks <= limit+1 {
			checkAgainstModel(t, ws, model, n, "after burst")
			ws.Reset()
			clear(model)
			checkAgainstModel(t, ws, model, n, "after reset")
		}
	}
	if sparse < 1000 || full < 1000 {
		t.Fatalf("resets exercised: %d sparse, %d full-clear", sparse, full)
	}
}

// modelBFSLevel advances the model one level: unseen neighbours of the
// depth-d vertices get d+1.
func modelBFSLevel(g *graph.Graph, model map[graph.V]int32, frontier []graph.V, d int32) []graph.V {
	var next []graph.V
	for _, x := range frontier {
		for _, y := range g.Neighbors(x) {
			if _, ok := model[y]; !ok {
				model[y] = d + 1
				next = append(next, y)
			}
		}
	}
	return next
}

func TestWorkspaceModelExpand(t *testing.T) {
	// One workspace serves every traversal; some vertices carry the -1
	// sentinel and must never be discovered. Dist is checked for every
	// vertex between levels — which is where the last level is seen but
	// unsettled — and again after the next expansion settled it.
	const n = 700
	rng := rand.New(rand.NewSource(2))
	b := graph.NewBuilder(n)
	for i := 0; i < 2600; i++ {
		b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
	}
	g := b.MustBuild()
	ws := NewWorkspace(n)
	for rep := 0; rep < 300; rep++ {
		ws.Reset()
		model := map[graph.V]int32{}
		for i := rng.Intn(12); i > 0; i-- {
			r := graph.V(rng.Intn(n))
			ws.SetDist(r, -1)
			model[r] = -1
		}
		src := graph.V(rng.Intn(n))
		ws.SetDist(src, 0)
		model[src] = 0
		frontier := []graph.V{src}
		stop := rng.Intn(8) // abandon some searches mid-way, last level unsettled
		for d := int32(0); len(frontier) > 0 && int(d) < 1+stop; d++ {
			want := modelBFSLevel(g, model, frontier, d)
			var arcs int64
			frontier, _, arcs = ExpandMeeting(g, ws, nil, frontier, d, nil, nil, false, false)
			if len(frontier) != len(want) {
				t.Fatalf("rep %d depth %d: level of %d vertices, model %d", rep, d, len(frontier), len(want))
			}
			if arcs == 0 && len(want) > 0 {
				t.Fatalf("rep %d depth %d: discovered %d vertices scanning no arcs", rep, d, len(want))
			}
			checkAgainstModel(t, ws, model, n, "between levels")
		}
	}
}

// TestMarksUnmarkModel takes batches of marks back and holds the set to a
// map model: unmark must leave the words and the log as if the batch had
// never been marked, whether the log filled up before the batch, during
// it or not at all, so that the next Reset still clears everything.
func TestMarksUnmarkModel(t *testing.T) {
	const n = 64*40 + 17
	m := NewMarks(n)
	limit := cap(m.touched)
	rng := rand.New(rand.NewSource(3))
	model := map[graph.V]bool{}
	mark := func(count int) []graph.V {
		var fresh []graph.V
		for i := 0; i < count; i++ {
			if v := graph.V(rng.Intn(n)); !model[v] {
				m.Mark(v)
				model[v] = true
				fresh = append(fresh, v)
			}
		}
		return fresh
	}
	var filledBefore, filledDuring int
	for round := 0; round < 4000; round++ {
		m.Reset()
		clear(model)
		mark(rng.Intn(limit + limit/2))
		logged, wasFull := len(m.touched), m.full()
		batch := mark(rng.Intn(limit))
		switch {
		case wasFull:
			filledBefore++
		case m.full():
			filledDuring++
		}
		m.unmark(batch, logged)
		for _, v := range batch {
			delete(model, v)
		}
		if len(m.touched) != logged || m.full() != wasFull {
			t.Fatalf("round %d: log holds %d entries (full=%v) after unmark, %d (full=%v) before the batch", round, len(m.touched), m.full(), logged, wasFull)
		}
		mark(rng.Intn(8))
		for v := graph.V(0); int(v) < n; v++ {
			if m.Seen(v) != model[v] {
				t.Fatalf("round %d: Seen(%d)=%v, model %v", round, v, m.Seen(v), model[v])
			}
		}
		m.Reset()
		for w, word := range m.words {
			if word != 0 {
				t.Fatalf("round %d: word %d is %x after Reset", round, w, word)
			}
		}
	}
	if filledBefore < 100 || filledDuring < 100 {
		t.Fatalf("log filled before the batch in %d rounds and during it in %d", filledBefore, filledDuring)
	}
}
