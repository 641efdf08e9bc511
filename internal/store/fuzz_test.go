package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"qbs/internal/dynamic"
	"qbs/internal/graph"
)

// Corrupt-input coverage for the WAL segment reader; the snapshot
// decoders' suite is in snapshot_test.go.

// segmentBytes returns the bytes of segment 1 after the writer logged
// records with epochs 1..n.
func segmentBytes(t testing.TB, n int) []byte {
	dir := t.TempDir()
	w, err := newWALWriter(dir, 1, 0, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.append(dynamic.Record{Epoch: uint64(i + 1), U: graph.V(i), W: graph.V(i + 1), Op: dynamic.OpInsert}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segmentFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readAll reads segment 1 from b with readSegment and collects what it
// delivers.
func readAll(b []byte, from, limit uint64, max int) ([]dynamic.Record, segmentRead, error) {
	var got []dynamic.Record
	res, err := readSegment(bytes.NewReader(b), int64(len(b)), 1, from, limit, max, func(rec dynamic.Record) error {
		got = append(got, rec)
		return nil
	})
	return got, res, err
}

// FuzzWALScan holds the segment reader to a linear model: a walk over
// the frames one by one that passes over records at or below from, ends
// at the first invalid frame, at the first record past limit or after
// max records, and delivers the rest in order. From 0 the reader reads
// linearly too, and everything it reports must match on any bytes. From
// above 0 it finds its first record by binary search, which is exact
// when the frames are the writer's shape — "invalid, or past from"
// holds on a suffix of the records, as it does when epochs rise and only
// the tail is torn — and then the delivered records must match; on any
// other bytes they must at least be valid frames of b in (from, limit].
func FuzzWALScan(f *testing.F) {
	valid := segmentBytes(f, 5)
	f.Add(valid, uint64(0), uint64(math.MaxUint64), uint16(100))
	f.Add(valid[:len(valid)-3], uint64(2), uint64(4), uint16(100))
	f.Add([]byte(walMagic), uint64(0), uint64(0), uint16(0))
	f.Add([]byte{}, uint64(1), uint64(1), uint16(1))
	long := segmentBytes(f, 2*readChunkRecords+40)
	f.Add(long, uint64(300), uint64(900), uint16(700))
	f.Add(long[:len(long)-walRecordSize-7], uint64(1000), uint64(math.MaxUint64), uint16(65535))
	f.Fuzz(func(t *testing.T, b []byte, from, limit uint64, m uint16) {
		max := int(m) + 1
		got, res, err := readAll(b, from, limit, max)
		if err != nil {
			t.Fatalf("read error on in-memory bytes: %v", err)
		}
		if len(got) != res.records || res.lastGood > int64(len(b)) {
			t.Fatalf("%d records delivered, %d reported, lastGood %d of %d bytes", len(got), res.records, res.lastGood, len(b))
		}

		// The model, and whether the binary search's precondition holds.
		var want []dynamic.Record
		valid := map[dynamic.Record]bool{}
		var wantLast uint64
		wantGood, wantTorn, wantBadHeader := int64(0), false, len(b) < walHeaderSize || !validHeader(b, 1)
		shaped, past := true, false
		if wantBadHeader {
			wantTorn = true
		} else {
			wantGood = walHeaderSize
			stopped := false
			for off := walHeaderSize; off+walRecordSize <= len(b); off += walRecordSize {
				rec, ok := decodeWALFrame(b[off:])
				if ok {
					valid[rec] = true
				}
				if p := !ok || rec.Epoch > from; past && !p {
					shaped = false
				} else {
					past = p
				}
				if stopped {
					continue
				}
				switch {
				case !ok:
					wantTorn, stopped = true, true
				case rec.Epoch > limit:
					stopped = true
				default:
					if rec.Epoch > from {
						want = append(want, rec)
					}
					wantGood += walRecordSize
					wantLast = rec.Epoch
					stopped = len(want) == max
				}
			}
			if !stopped && wantGood < int64(len(b)) {
				wantTorn = true // a partial record ends the data
			}
		}

		if from == 0 || shaped {
			if len(got) != len(want) {
				t.Fatalf("from %d limit %d max %d: %d records, model %d", from, limit, max, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d: %+v, model %+v", i, got[i], want[i])
				}
			}
		} else {
			if len(got) > max {
				t.Fatalf("%d records past max %d", len(got), max)
			}
			for _, rec := range got {
				if !valid[rec] || rec.Epoch <= from || rec.Epoch > limit {
					t.Fatalf("delivered %+v: not a valid frame of the data in (%d, %d]", rec, from, limit)
				}
			}
		}
		if from == 0 && (res.torn != wantTorn || res.badHeader != wantBadHeader || res.lastGood != wantGood || res.lastEpoch != wantLast) {
			t.Fatalf("read ended %+v, model torn=%v badHeader=%v lastGood=%d lastEpoch=%d",
				res, wantTorn, wantBadHeader, wantGood, wantLast)
		}
	})
}

// TestWALBitFlips flips each byte of a valid segment; the scan must
// never panic and must surface strictly fewer (or differently-valued,
// never out-of-frame) records.
func TestWALBitFlips(t *testing.T) {
	const numRecs = 8
	valid := segmentBytes(t, numRecs)
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x01
		_, res, err := readAll(mut, 0, math.MaxUint64, math.MaxInt)
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

// failingReader serves data, except that a read covering byte at
// returns the bytes before it and err, as a disk's EIO would.
type failingReader struct {
	data []byte
	at   int64
	err  error
}

func (r failingReader) ReadAt(p []byte, off int64) (int, error) {
	if off <= r.at && r.at < off+int64(len(p)) {
		return copy(p, r.data[off:r.at]), r.err
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// TestWALReadErrorIsNotTorn: a read that fails is an error, never a
// torn tail — a writable open truncates a torn tail, so a transient EIO
// taken for one would discard acknowledged records. Each failure, in
// the header, mid-record, at a chunk boundary and under the binary
// search, comes back as that error with nothing reported torn; a short
// read at the end of the data is still a torn tail.
func TestWALReadErrorIsNotTorn(t *testing.T) {
	data := segmentBytes(t, 2*readChunkRecords+40)
	eio := errors.New("input/output error")
	for _, c := range []struct {
		name string
		at   int64
		from uint64
	}{
		{"header", 5, 0},
		{"mid-record", walHeaderSize + 3*walRecordSize + 10, 0},
		{"chunk-boundary", walHeaderSize + readChunkRecords*walRecordSize, 0},
		{"binary-search", walHeaderSize + (2*readChunkRecords+40)/2*walRecordSize + 1, 700},
	} {
		res, err := readSegment(failingReader{data, c.at, eio}, int64(len(data)), 1, c.from, math.MaxUint64, math.MaxInt,
			func(dynamic.Record) error { return nil })
		if !errors.Is(err, eio) || res.torn || res.badHeader {
			t.Errorf("%s: err=%v, torn=%v badHeader=%v; want the read error and nothing torn", c.name, err, res.torn, res.badHeader)
		}
	}
	short := data[:len(data)-walRecordSize/2]
	got, res, err := readAll(short, 0, math.MaxUint64, math.MaxInt)
	if err != nil || !res.torn || len(got) != 2*readChunkRecords+39 || res.lastGood != int64(len(data)-walRecordSize) {
		t.Fatalf("short read at the end: err=%v %+v, %d records", err, res, len(got))
	}
}
