package store

import (
	"os"
	"path/filepath"
	"testing"

	"qbs/internal/graph"
)

// Corrupt-input coverage for the WAL scanner; the snapshot decoders'
// suite is in snapshot_test.go.

func FuzzWALScan(f *testing.F) {
	dir := f.TempDir()
	w, err := newWALWriter(dir, 1, 0, 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.append(WALRecord{Epoch: uint64(i + 1), U: graph.V(i), W: graph.V(i + 1), Op: WALInsert}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), segmentFileName(1))
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := scanSegment(p, 1, func(rec WALRecord) error { return nil })
		if err != nil {
			t.Fatalf("scanSegment returned I/O error on in-memory bytes: %v", err)
		}
		if res.lastGood > int64(len(b)) {
			t.Fatalf("lastGood %d beyond file size %d", res.lastGood, len(b))
		}
		if !res.torn && !res.badHeader && (res.lastGood-walHeaderSize)%walRecordSize != 0 {
			t.Fatalf("clean scan ended off a record boundary")
		}
	})
}

// TestWALBitFlips flips each byte of a valid segment; the scan must
// never panic and must surface strictly fewer (or differently-valued,
// never out-of-frame) records.
func TestWALBitFlips(t *testing.T) {
	dir := t.TempDir()
	w, err := newWALWriter(dir, 1, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const numRecs = 8
	for i := 0; i < numRecs; i++ {
		if err := w.append(WALRecord{Epoch: uint64(i + 1), U: graph.V(i), W: graph.V(i + 1), Op: WALInsert}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x01
		p := filepath.Join(t.TempDir(), segmentFileName(1))
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := scanSegment(p, 1, func(WALRecord) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if i < walHeaderSize {
			if !res.badHeader {
				t.Fatalf("byte %d: header flip not detected", i)
			}
			continue
		}
		// A flipped record byte must kill that record (CRC) and stop the
		// scan there; earlier records still parse.
		rec := (i - walHeaderSize) / walRecordSize
		if res.records != rec || !res.torn {
			t.Fatalf("byte %d: scan saw %d records (torn=%v), want %d", i, res.records, res.torn, rec)
		}
	}
}
