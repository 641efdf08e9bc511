package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/workload"
)

// TestWALBytesUnchanged pins the bytes of the log a store writes: a
// fixed mutation stream and one compaction over a small graph, with a
// segment size that forces rotations. The hash covers every segment's
// name and contents in order, so headers, framing, op codes and
// rotation points are all held.
func TestWALBytesUnchanged(t *testing.T) {
	const want = "6908b70b82e4747f5f182ea8f20ad2b7bf046dc665ed0dcd74148b988367fae7"
	g := graph.BarabasiAlbert(120, 2, 11)
	dir := t.TempDir()
	st, err := Create(dir, newDynamic(t, g, 6), Options{SegmentBytes: walHeaderSize + 10*walRecordSize})
	if err != nil {
		t.Fatal(err)
	}
	d := st.Index()
	ops := workload.Mutations(g, 30, 17)
	for i, op := range ops {
		if _, err := d.ApplyEdge(op.U, op.V, op.Kind == workload.OpInsert); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i == len(ops)/2 {
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var kinds [4]int
	if _, _, _, err := st.ReadWAL(0, 0, func(rec dynamic.Record) error {
		kinds[rec.Op]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if kinds[dynamic.OpInsert] == 0 || kinds[dynamic.OpDelete] == 0 || kinds[dynamic.OpCompact] != 1 {
		t.Fatalf("records per op %v: the stream does not hold every op", kinds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(walDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("%d segments: the stream did not rotate the log", len(segs))
	}
	h := sha256.New()
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", segmentFileName(seg.seq), len(data))
		h.Write(data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("WAL bytes changed: sha256 %s, want %s", got, want)
	}
}
