package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"qbs/internal/dynamic"
	"qbs/internal/obs"
)

// Write-ahead log: CRC-framed, epoch-stamped records in rotating
// segments. The writer is single-threaded by construction (the dynamic
// index serialises epoch advances under its writer lock; the store adds
// its own mutex for rotation/pruning from checkpoints).

const (
	walMagic      = "QBSW"
	walVersion    = 1
	walHeaderSize = 16 // magic + u32 version + u64 seq
	walPayload    = 17 // u64 epoch + u8 op + i32 u + i32 w
	walRecordSize = 8 + walPayload
)

func segmentFileName(seq uint64) string {
	return fmt.Sprintf("seg-%016d.wal", seq)
}

func segmentSeq(name string) (uint64, bool) {
	var s uint64
	if _, err := fmt.Sscanf(name, "seg-%d.wal", &s); err != nil {
		return 0, false
	}
	return s, name == segmentFileName(s)
}

// segmentInfo is the pruning bookkeeping for one closed segment.
type segmentInfo struct {
	seq        uint64
	lastEpoch  uint64 // highest epoch in the segment; 0 when empty
	hasRecords bool
}

// walWriter appends records to the current segment, rotating at a size
// threshold and fsyncing per the batching policy.
type walWriter struct {
	dir       string
	f         *os.File
	seq       uint64
	size      int64
	segBytes  int64
	syncEvery int // fsync after this many unsynced appends; <=1 = every append
	unsynced  int
	cur       segmentInfo
	closed    []segmentInfo
	buf       [walRecordSize]byte
}

// newWALWriter starts a fresh segment with the given sequence number.
// prior lists already-existing closed segments (from an Open scan) so a
// later checkpoint can prune them.
func newWALWriter(dir string, seq uint64, segBytes int64, syncEvery int, prior []segmentInfo) (*walWriter, error) {
	if segBytes <= 0 {
		segBytes = 64 << 20
	}
	w := &walWriter{
		dir:       dir,
		seq:       seq - 1, // openSegment increments
		segBytes:  segBytes,
		syncEvery: syncEvery,
		closed:    append([]segmentInfo(nil), prior...),
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *walWriter) openSegment() error {
	w.seq++
	f, err := os.OpenFile(filepath.Join(w.dir, segmentFileName(w.seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], w.seq)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	w.f = f
	w.size = walHeaderSize
	w.cur = segmentInfo{seq: w.seq}
	return syncDir(w.dir)
}

// append frames, writes and (per policy) fsyncs one record. The write
// is timed into qbs_wal_append_ns, what every logged update pays; the
// fsync, paid only at SyncEvery boundaries, is a wal.fsync root span.
func (w *walWriter) append(rec dynamic.Record) error {
	if w.size+walRecordSize > w.segBytes && w.cur.hasRecords {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	start := time.Now()
	if _, err := w.f.Write(EncodeWALFrame(w.buf[:0], rec)); err != nil {
		return err
	}
	mWALAppendNs.Observe(time.Since(start))
	w.size += walRecordSize
	w.cur.lastEpoch = rec.Epoch
	w.cur.hasRecords = true
	w.unsynced++
	if w.syncEvery <= 1 || w.unsynced >= w.syncEvery {
		n := w.unsynced
		w.unsynced = 0
		if err := w.fsync(n); err != nil {
			return err
		}
	}
	return nil
}

// sync flushes any batched appends to disk.
func (w *walWriter) sync() error {
	if w.unsynced == 0 {
		return nil
	}
	n := w.unsynced
	w.unsynced = 0
	return w.fsync(n)
}

// fsync durably flushes records batched appends. Each flush is a root
// span so slow fsync batches (the classic durability stall) show up in
// the trace store with the batch size attached; tail sampling drops
// fast flushes without allocating.
func (w *walWriter) fsync(records int) error {
	tb := obs.DefaultTracer.Begin("wal.fsync", "", 0, false)
	tb.Root().SetInt("records", int64(records))
	err := w.f.Sync()
	if err != nil {
		tb.MarkError()
		evFsyncError.Emit(obs.Int("records", int64(records)), obs.Str("error", err.Error()))
	}
	obs.DefaultTracer.Finish(tb)
	return err
}

// rotate closes the current segment and opens the next one.
func (w *walWriter) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.closed = append(w.closed, w.cur)
	return w.openSegment()
}

// prune deletes closed segments whose every record is covered by a
// snapshot at or beyond upto (empty segments are always prunable).
func (w *walWriter) prune(upto uint64) error {
	kept := w.closed[:0]
	for _, seg := range w.closed {
		if !seg.hasRecords || seg.lastEpoch <= upto {
			if err := os.Remove(filepath.Join(w.dir, segmentFileName(seg.seq))); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		kept = append(kept, seg)
	}
	w.closed = kept
	return syncDir(w.dir)
}

// close flushes and closes the current segment.
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		// The sync failure is the primary error; the close is
		// best-effort teardown of a segment we can no longer trust.
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// segmentFile is one WAL segment on disk.
type segmentFile struct {
	path string
	seq  uint64
}

// listSegments returns the WAL segments present in dir, ordered by
// sequence number.
func listSegments(dir string) ([]segmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segmentFile
	for _, e := range entries {
		if seq, ok := segmentSeq(e.Name()); ok {
			segs = append(segs, segmentFile{path: filepath.Join(dir, e.Name()), seq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// validHeader reports whether hdr, the first walHeaderSize bytes of a
// segment file, is the header of segment seq.
func validHeader(hdr []byte, seq uint64) bool {
	return string(hdr[:4]) == walMagic &&
		binary.LittleEndian.Uint32(hdr[4:]) == walVersion &&
		binary.LittleEndian.Uint64(hdr[8:]) == seq
}

// segmentRead reports how a read of one segment ended.
type segmentRead struct {
	lastGood  int64  // file offset after the last valid record read
	lastEpoch uint64 // epoch of the last valid record read
	records   int    // records delivered
	torn      bool   // stopped at a partial or invalid frame, or a bad header
	badHeader bool   // the segment header itself was invalid
}

// readChunkRecords is how many records one read covers (512 × 25 B =
// 12.5 KiB per pread).
const readChunkRecords = 512

// readSegment is the one reader of WAL records: recovery, ReadWAL and
// ReadWAL's walk back over the segments all read a segment through it.
// It checks the header of segment seq, finds the first record with
// epoch > from by binary search over the fixed-size records (from = 0
// reads from the first; the writer's epochs rise within a segment, and a
// probe that fails to validate can only be the torn tail, so the search
// moves left of it), and hands records to fn in chunked reads. Records
// at or below from are passed over. The read stops at the first partial
// or invalid frame (torn), at the first record past limit (not yet
// durable), or once max records are delivered. A length field is never
// trusted: records are fixed-size under version 1, so a corrupt frame
// cannot force a large allocation.
//
// A read error other than a short read at the end of the data is
// returned, never taken for a torn tail: a writable open truncates a
// torn tail, and a transient EIO must not discard acknowledged records.
func readSegment(f io.ReaderAt, size int64, seq, from, limit uint64, max int, fn func(dynamic.Record) error) (segmentRead, error) {
	var res segmentRead
	var b []byte
	read := func(off int64, n int64) (int64, error) {
		if int64(cap(b)) < n {
			b = make([]byte, n)
		}
		b = b[:n]
		m, err := f.ReadAt(b, off)
		if err == io.EOF {
			err = nil // short read: the end of the data
		}
		return int64(m), err
	}
	m, err := read(0, walHeaderSize)
	if err != nil {
		return res, err
	}
	if m < walHeaderSize || !validHeader(b, seq) {
		res.badHeader, res.torn = true, true
		return res, nil
	}
	count := (size - walHeaderSize) / walRecordSize
	lo := int64(0)
	for hi := count; from > 0 && lo < hi; {
		mid := (lo + hi) / 2
		m, err := read(walHeaderSize+mid*walRecordSize, walRecordSize)
		if err != nil {
			return res, err
		}
		if rec, ok := decodeWALFrame(b); m < walRecordSize || !ok || rec.Epoch > from {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	res.lastGood = walHeaderSize + lo*walRecordSize
	for i := lo; i < count && res.records < max; {
		span := min(count-i, readChunkRecords, int64(max-res.records))
		m, err := read(walHeaderSize+i*walRecordSize, span*walRecordSize)
		if err != nil {
			return res, err
		}
		for j := int64(0); j+walRecordSize <= m; j += walRecordSize {
			rec, ok := decodeWALFrame(b[j:])
			if !ok {
				res.torn = true
				return res, nil
			}
			if rec.Epoch > limit {
				return res, nil
			}
			if rec.Epoch > from {
				if err := fn(rec); err != nil {
					return res, err
				}
				res.records++
			}
			res.lastGood += walRecordSize
			res.lastEpoch = rec.Epoch
		}
		if m < span*walRecordSize {
			res.torn = true // the data ended short of its size
			return res, nil
		}
		i += span
	}
	res.torn = res.records < max && res.lastGood < size
	return res, nil
}

// read opens seg and reads it with readSegment. A segment removed since
// it was listed reads as os.ErrNotExist.
func (seg segmentFile) read(from, limit uint64, max int, fn func(dynamic.Record) error) (segmentRead, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return segmentRead{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return segmentRead{}, err
	}
	return readSegment(f, fi.Size(), seg.seq, from, limit, max, fn)
}
