package store

import (
	"testing"

	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
)

// TestNoLabelAtALandmark holds every path that writes a label column to
// core.NoEntry at every landmark's row of every column: a static build
// of either orientation, a maintained index after a seeded stream of
// inserts and deletes with a compaction in it, and both snapshot
// schemas reopened through the store (v3 for the maintained index, v5
// for the directed one). The label walk (core.LabelWalk.run) relies on
// it: it looks for a label below 255 and never tests whether a
// neighbour is a landmark.
func TestNoLabelAtALandmark(t *testing.T) {
	check := func(name string, landmarks []graph.V, labellings ...[][]uint8) {
		t.Helper()
		if len(landmarks) == 0 {
			t.Fatalf("%s: no landmarks", name)
		}
		for _, cols := range labellings {
			if len(cols) != len(landmarks) {
				t.Fatalf("%s: %d columns for %d landmarks", name, len(cols), len(landmarks))
			}
			for i, col := range cols {
				for _, r := range landmarks {
					if col[r] != core.NoEntry {
						t.Fatalf("%s: column %d holds %d at landmark %d", name, i, col[r], r)
					}
				}
			}
		}
	}

	g := testGraph(t)
	ix, err := core.Build(g, core.Options{NumLandmarks: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.State()
	check("core.Build", st.Landmarks, st.LabelTo, st.LabelFrom)

	dg, dix := diTestIndex(t)
	st = dix.State()
	check("core.Build directed", st.Landmarks, st.LabelTo, st.LabelFrom)
	dir := t.TempDir()
	if err := CreateDi(dir, dg, st); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDi(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	st = re.State()
	check("v5 snapshot reopened", st.Landmarks, st.LabelTo, st.LabelFrom)

	d := newDynamic(t, g, 6)
	dir = t.TempDir()
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 40, 67)
	// Deletes beside the mostly inserting stream: an edge at each
	// landmark, whose repair rewrites the columns around it.
	deleted := 0
	for _, r := range d.Landmarks() {
		if nb := d.CurrentGraph().Neighbors(r); len(nb) > 0 {
			if ok, err := d.RemoveEdge(r, nb[0]); err == nil && ok {
				deleted++
			}
		}
	}
	if deleted == 0 {
		t.Fatal("no delete applied")
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 40, 71)
	ps := d.Persistent()
	check("maintained", ps.Landmarks, ps.Labels)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 10, 73) // replayed from the log on reopening
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, replay := range []bool{false, true} {
		path, _, err := s.NewestSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		name := "v3 snapshot reopened"
		var rd *dynamic.Index
		if replay {
			name += " and the log replayed"
			s2, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			rd = s2.Index()
		} else if rd, _, err = LoadSnapshot(path, false, dynamic.Options{CompactFraction: -1}); err != nil {
			t.Fatal(err)
		}
		ps := rd.Persistent()
		check(name, ps.Landmarks, ps.Labels)
	}
}
