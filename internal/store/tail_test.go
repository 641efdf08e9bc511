package store

import (
	"testing"

	"qbs/internal/dynamic"
)

// collect drains ReadWAL into a slice.
func collect(t *testing.T, s *Store, from uint64, max int) ([]dynamic.Record, bool) {
	t.Helper()
	var recs []dynamic.Record
	_, _, gap, err := s.ReadWAL(from, max, func(r dynamic.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, gap
}

// TestReadWALStreamsContiguously drives updates across several segment
// rotations and checks the tail reader returns exactly the suffix asked
// for, in contiguous epoch order, from any starting point.
func TestReadWALStreamsContiguously(t *testing.T) {
	g := testGraph(t)
	d := newDynamic(t, g, 4)
	s, err := Create(t.TempDir(), d, Options{SegmentBytes: 2 << 10, SyncEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ops := applyOps(t, d, 500, 11)
	top := d.Epoch()
	if top != uint64(len(ops)) {
		t.Fatalf("epoch %d after %d ops", top, len(ops))
	}

	for _, from := range []uint64{0, 1, 250, top - 1, top} {
		recs, gap := collect(t, s, from, 0)
		if gap {
			t.Fatalf("gap reported from %d on an unpruned log", from)
		}
		if len(recs) != int(top-from) {
			t.Fatalf("from %d: %d records, want %d", from, len(recs), top-from)
		}
		for i, r := range recs {
			if r.Epoch != from+1+uint64(i) {
				t.Fatalf("from %d: record %d has epoch %d", from, i, r.Epoch)
			}
		}
	}

	// The per-call cap truncates without reporting a gap.
	recs, gap := collect(t, s, 0, 100)
	if gap || len(recs) != 100 || recs[99].Epoch != 100 {
		t.Fatalf("capped read: %d records, gap=%v", len(recs), gap)
	}

	// Replayed against the records, ops must round-trip.
	for i, op := range ops {
		r := recs[i%100]
		if i >= 100 {
			break
		}
		if (r.Op == dynamic.OpInsert) != op.insert || r.U != op.u || r.W != op.w {
			t.Fatalf("record %d: %+v does not match applied op %+v", i, r, op)
		}
	}
}

// TestReadWALRetainAndGap checks the retention floor: checkpoints prune
// up to min(snapshot, floor), a held floor preserves the suffix, and a
// released floor produces a detectable gap.
func TestReadWALRetainAndGap(t *testing.T) {
	g := testGraph(t)
	d := newDynamic(t, g, 4)
	s, err := Create(t.TempDir(), d, Options{SegmentBytes: 1 << 10, SyncEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	applyOps(t, d, 120, 12)
	s.SetWALRetain(60) // a replica parked at epoch 60

	// Two checkpoints normally prune everything the snapshots cover.
	applyOps(t, d, 120, 13)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 120, 14)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if recs, gap := collect(t, s, 60, 0); gap || len(recs) != int(d.Epoch()-60) {
		t.Fatalf("floor not honoured: %d records, gap=%v", len(recs), gap)
	}

	// Release the floor: the next checkpoint prunes past 60 and the
	// reader reports the gap instead of silently skipping epochs.
	s.SetWALRetain(^uint64(0))
	applyOps(t, d, 40, 15)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, gap := collect(t, s, 60, 0); !gap {
		t.Fatal("pruned log served from epoch 60 without reporting a gap")
	}
	// From the newest snapshot the log is still contiguous.
	if recs, gap := collect(t, s, d.Epoch(), 0); gap || len(recs) != 0 {
		t.Fatalf("tip read: %d records, gap=%v", len(recs), gap)
	}
}

// TestLoadSnapshotPlusStreamReplayMatchesLive is the storage-level
// replication round trip, no HTTP: bootstrap from the snapshot file,
// feed the WAL records through Replay, land bit-identical.
func TestLoadSnapshotPlusStreamReplayMatchesLive(t *testing.T) {
	g := testGraph(t)
	d := newDynamic(t, g, 4)
	dir := t.TempDir()
	s, err := Create(dir, d, Options{SegmentBytes: 2 << 10, SyncEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	applyOps(t, d, 150, 21)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 150, 22)

	path, snapEpoch, err := s.NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rd, loadedEpoch, err := LoadSnapshot(path, false, dynamic.Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if loadedEpoch != snapEpoch || rd.Epoch() != snapEpoch {
		t.Fatalf("loaded epoch %d/%d, want %d", loadedEpoch, rd.Epoch(), snapEpoch)
	}

	var recs []dynamic.Record
	if _, gap := collect(t, s, rd.Epoch(), 0); gap {
		t.Fatal("gap below the newest snapshot")
	}
	_, _, _, err = s.ReadWAL(rd.Epoch(), 0, func(r dynamic.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Replay(recs); err != nil {
		t.Fatal(err)
	}
	// A second replay of the same records is refused: the first is no
	// longer the epoch after the index's.
	if err := rd.Replay(recs); err == nil || rd.Epoch() != d.Epoch() {
		t.Fatalf("re-replay: err=%v, epoch %d, live %d", err, rd.Epoch(), d.Epoch())
	}

	if rd.Epoch() != d.Epoch() {
		t.Fatalf("replayed epoch %d, live %d", rd.Epoch(), d.Epoch())
	}
	pw, pg := d.Persistent(), rd.Persistent()
	for r := range pw.Labels {
		for v := range pw.Labels[r] {
			if pw.Labels[r][v] != pg.Labels[r][v] || pw.Dists[r][v] != pg.Dists[r][v] {
				t.Fatalf("column %d vertex %d diverged", r, v)
			}
		}
	}
	for i := range pw.Sigma {
		if pw.Sigma[i] != pg.Sigma[i] {
			t.Fatalf("sigma[%d] diverged", i)
		}
	}
}

// TestWALFrameCodecRoundTrip pins the wire framing: encode → decode is
// the identity, and a flipped byte is rejected.
func TestWALFrameCodecRoundTrip(t *testing.T) {
	rec := dynamic.Record{Epoch: 12345, U: 7, W: 4242, Op: dynamic.OpDelete}
	frame := EncodeWALFrame(nil, rec)
	if len(frame) != WALRecordSize {
		t.Fatalf("frame size %d, want %d", len(frame), WALRecordSize)
	}
	back, err := DecodeWALFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if back != rec {
		t.Fatalf("round trip %+v != %+v", back, rec)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := DecodeWALFrame(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	if _, err := DecodeWALFrame(frame[:10]); err == nil {
		t.Fatal("short frame accepted")
	}
}

// TestReadWALReadOnlyServesLiveWriterAppends: a read-only open tolerates
// observing a consistent prefix of a live writer's log, and its ReadWAL
// must keep serving records the writer appends after the open — the scan
// is unbounded past the open-time epoch. The returned limit, though,
// stays at the open-time epoch: an empty read beyond it is "nothing
// visible yet", never a gap.
func TestReadWALReadOnlyServesLiveWriterAppends(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 4)
	s, err := Create(dir, d, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applyOps(t, d, 30, 81)

	ro, err := Open(dir, Options{ReadOnly: true, Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	roEpoch := ro.Index().Epoch()

	// The writer moves on after the read-only open.
	applyOps(t, d, 20, 82)
	tip := d.Epoch()

	var recs []dynamic.Record
	n, limit, gap, err := ro.ReadWAL(roEpoch, 0, func(r dynamic.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gap || n != int(tip-roEpoch) {
		t.Fatalf("read-only tail past open-time epoch: %d records (want %d), gap=%v", n, tip-roEpoch, gap)
	}
	for i, r := range recs {
		if r.Epoch != roEpoch+1+uint64(i) {
			t.Fatalf("record %d has epoch %d", i, r.Epoch)
		}
	}
	if limit != roEpoch {
		t.Fatalf("read-only limit %d, want open-time epoch %d", limit, roEpoch)
	}
	// An empty read at the writer's tip must not look like a gap to a
	// caller comparing against the returned limit.
	n, limit, gap, err = ro.ReadWAL(tip, 0, func(dynamic.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || gap || limit > tip {
		t.Fatalf("tip read on read-only store: n=%d gap=%v limit=%d", n, gap, limit)
	}
}
