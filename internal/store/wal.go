package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"qbs/internal/graph"
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

// WALRecord is one logged epoch advance: what the writer appends,
// recovery replays and replication ships. Op is one of WALInsert,
// WALDelete, WALCompact.
type WALRecord struct {
	Epoch uint64
	U, W  graph.V
	Op    uint8
}

// WAL record operations (the on-disk op codes).
const (
	WALInsert  = 1
	WALDelete  = 2
	WALCompact = 3
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
func (w *walWriter) append(rec WALRecord) error {
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

// listSegments returns the WAL segments present in dir, ordered by
// sequence number.
type segmentFile struct {
	path string
	seq  uint64
}

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

// scanResult reports how a segment scan ended.
type scanResult struct {
	lastGood  int64  // file offset after the last valid record
	lastEpoch uint64 // highest epoch seen
	records   int
	torn      bool // scan stopped before EOF (partial/corrupt tail)
	badHeader bool // the segment header itself was invalid
}

// scanSegment streams the records of one segment through fn, stopping
// at the first framing or checksum violation. It never trusts a length
// field: records are fixed-size under version 1, so a corrupt frame
// cannot force a large allocation.
func scanSegment(path string, wantSeq uint64, fn func(WALRecord) error) (scanResult, error) {
	var res scanResult
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()

	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || !validHeader(hdr[:], wantSeq) {
		res.badHeader, res.torn = true, true
		return res, nil
	}
	res.lastGood = walHeaderSize

	var rec [walRecordSize]byte
	for {
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			if err != io.EOF {
				res.torn = true // partial record
			}
			return res, nil
		}
		r, ok := decodeWALFrame(rec[:])
		if !ok {
			res.torn = true
			return res, nil
		}
		if err := fn(r); err != nil {
			return res, err
		}
		res.lastGood += walRecordSize
		res.lastEpoch = r.Epoch
		res.records++
	}
}
