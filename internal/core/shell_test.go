package core_test

import (
	"fmt"
	"testing"

	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/workload"
)

// TestEpochsShareOneShell: every index a dynamic index publishes — built,
// repaired, compacted, replayed — is its one shell around that epoch's
// parts. The landmark slice and the per-vertex reverse map are the same
// backing arrays from the first epoch to the last: publishing an epoch
// allocates and validates nothing per vertex.
func TestEpochsShareOneShell(t *testing.T) {
	g := graph.BarabasiAlbert(20000, 3, 9)
	d, err := dynamic.New(g, g.TopDegreeVertices(8), dynamic.Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	first := d.CurrentIndex()
	same := func(when string) {
		t.Helper()
		ix := d.CurrentIndex()
		if ix == first {
			t.Fatalf("%s: no new epoch was published", when)
		}
		if &ix.LandIdx()[0] != &first.LandIdx()[0] || &ix.Landmarks()[0] != &first.Landmarks()[0] {
			t.Fatalf("%s: the epoch's index has its own copy of the shell", when)
		}
	}
	for i, op := range workload.Mutations(g, 12, 4) {
		if _, err := d.ApplyEdge(op.U, op.V, op.Kind == workload.OpInsert); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprint("after update ", i))
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	same("after Compact")
	if err := d.Replay([]dynamic.Record{{Epoch: d.Epoch() + 1, Op: dynamic.OpCompact}}); err != nil {
		t.Fatal(err)
	}
	if ix := d.CurrentIndex(); &ix.LandIdx()[0] != &first.LandIdx()[0] {
		t.Fatal("after a replayed compaction marker: the epoch's index has its own copy of the shell")
	}
}
