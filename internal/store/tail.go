package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// Replication read surface: the primary side of WAL shipping. A store
// already orders every epoch advance as one fixed-size CRC-framed log
// record; replication is then just reading those records back out —
// ReadWAL serves any suffix of the log to a tailing replica, and
// SetWALRetain parks the pruning floor so a checkpoint never deletes a
// segment a registered replica still needs. See internal/replica for
// the HTTP protocol layered on top.

// WALRecordSize is the framed size of one log record — the unit of the
// replication wire format and of byte-lag accounting.
const WALRecordSize = walRecordSize

// decodeWALFrame validates one framed record (length, checksum, op) and
// decodes it. It is the single framing authority shared by recovery
// scans, the tail reader and (via internal/replica) the wire protocol.
func decodeWALFrame(b []byte) (WALRecord, bool) {
	if binary.LittleEndian.Uint32(b[0:]) != walPayload ||
		binary.LittleEndian.Uint32(b[4:]) != crc32.Checksum(b[8:walRecordSize], crcTable) {
		return WALRecord{}, false
	}
	op := b[16]
	if op != WALInsert && op != WALDelete && op != WALCompact {
		return WALRecord{}, false
	}
	return WALRecord{
		Epoch: binary.LittleEndian.Uint64(b[8:]),
		U:     graph.V(binary.LittleEndian.Uint32(b[17:])),
		W:     graph.V(binary.LittleEndian.Uint32(b[21:])),
		Op:    op,
	}, true
}

// EncodeWALFrame appends the framing of rec to dst: the on-disk record,
// checksum included, which is also what replication ships, so a replica
// validates shipped records exactly as recovery validates the log.
func EncodeWALFrame(dst []byte, rec WALRecord) []byte {
	var b [walRecordSize]byte
	binary.LittleEndian.PutUint32(b[0:], walPayload)
	binary.LittleEndian.PutUint64(b[8:], rec.Epoch)
	b[16] = rec.Op
	binary.LittleEndian.PutUint32(b[17:], uint32(rec.U))
	binary.LittleEndian.PutUint32(b[21:], uint32(rec.W))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[8:], crcTable))
	return append(dst, b[:]...)
}

// DecodeWALFrame decodes one shipped frame (the inverse of
// EncodeWALFrame), rejecting bad checksums and unknown ops.
func DecodeWALFrame(b []byte) (WALRecord, error) {
	if len(b) < walRecordSize {
		return WALRecord{}, fmt.Errorf("store: short WAL frame (%d bytes)", len(b))
	}
	rec, ok := decodeWALFrame(b[:walRecordSize])
	if !ok {
		return WALRecord{}, fmt.Errorf("store: corrupt WAL frame")
	}
	return rec, nil
}

// DurableEpoch returns the newest epoch replication can currently
// serve: everything fsynced so far. On a read-only store (no writer)
// every on-disk record is as durable as it will get, so the index epoch
// is returned.
func (s *Store) DurableEpoch() uint64 {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.w == nil {
		return s.d.Epoch()
	}
	return s.syncedEpoch
}

// NewestSnapshot returns the path and epoch of the newest intact
// snapshot — the bootstrap image replication serves.
func (s *Store) NewestSnapshot() (string, uint64, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if len(s.snaps) == 0 {
		return "", 0, fmt.Errorf("store: no snapshot in %s", s.dir)
	}
	epoch := s.snaps[len(s.snaps)-1]
	return filepath.Join(s.dir, snapshotFileName(epoch)), epoch, nil
}

// SetWALRetain bounds checkpoint pruning: segments holding any record
// with epoch > floor survive even when every retained snapshot covers
// them. The replication primary parks the floor at the least advanced
// registered replica so a tailing replica never finds its next record
// pruned from under it. The initial floor (no registered replicas) is
// MaxUint64 — no constraint.
func (s *Store) SetWALRetain(floor uint64) {
	s.walMu.Lock()
	s.retain = floor
	s.walMu.Unlock()
}

// tailSyncInterval rate-limits replication-driven fsyncs: a record is
// never shipped before it is durable, but tip-chasing replicas force at
// most one extra fsync per this interval instead of collapsing the
// primary's SyncEvery batching into one fsync per poll per replica.
const tailSyncInterval = 10 * time.Millisecond

// tailChunkRecords is how many records one delivery pread covers
// (512 × 25 B = 12.5 KiB per syscall).
const tailChunkRecords = 512

// ReadWAL streams log records with epoch > from, in epoch order, to fn
// — at most max of them (max <= 0 means 65536). Only durable records
// are served: a record is fsynced before it is ever shipped, so a
// replica can never apply an epoch that a recovered primary lost. When
// batched appends are pending (SyncEvery > 1), ReadWAL flushes them at
// most once per tailSyncInterval and meanwhile serves up to the last
// fsynced record — bounding both the extra fsync load and the extra
// replication lag. Reading the segment files directly is safe
// concurrently with the writer: a partially written tail record simply
// ends the scan until the next call. Record positioning is O(log
// segment) via binary search over the fixed-size records, so a
// caught-up replica polling at the tip costs a few small reads per
// poll.
//
// limit is the serving floor the scan guaranteed — the newest epoch
// this call promises to have delivered if it was present. Callers
// inferring pruning from an empty read must compare against this
// returned value, not re-read DurableEpoch afterwards: the horizon can
// advance during the scan (a concurrent write fsyncs), and a fresher
// value would claim records the scan never looked for, turning a
// caught-up tail into a spurious gap.
//
// gap reports that the log could not supply the contiguous successor of
// from (epoch from+1 was pruned or lost): the caller must re-bootstrap
// from a snapshot instead of tailing.
func (s *Store) ReadWAL(from uint64, max int, fn func(WALRecord) error) (n int, limit uint64, gap bool, err error) {
	if max <= 0 {
		max = 1 << 16
	}
	scanLimit := ^uint64(0)
	s.walMu.Lock()
	if s.w == nil {
		// No writer: every complete on-disk record is served unbounded —
		// read-only opens tolerate observing a consistent prefix of a
		// live writer's log, and those appends are past this process's
		// view. The promised floor is still only the open-time epoch:
		// records beyond it may exist without this store knowing, so an
		// empty read up there is "nothing visible yet", not a gap.
		limit = s.d.Epoch()
	} else {
		if !s.closed && s.syncedEpoch < s.lastAppended && time.Since(s.lastTailSync) >= tailSyncInterval {
			if err := s.w.sync(); err != nil {
				s.walMu.Unlock()
				return 0, 0, false, err
			}
			s.syncedEpoch = s.lastAppended
			s.lastTailSync = time.Now()
		}
		limit = s.syncedEpoch
		scanLimit = limit
	}
	s.walMu.Unlock()
	segs, err := listSegments(walDir(s.dir))
	if err != nil {
		return 0, limit, false, err
	}
	// Segments are epoch-ordered, so the first one that can contain
	// from+1 is the newest whose first record is at or before it;
	// earlier segments hold only covered records. Walking back from the
	// tail keeps a caught-up poll at O(1) opens even when retention
	// leases have let old segments pile up.
	start := 0
	for i := len(segs) - 1; i >= 0; i-- {
		first, ok := segmentFirstEpoch(segs[i])
		if ok && first <= from+1 {
			start = i
			break
		}
	}
	expect := from + 1
	for _, seg := range segs[start:] {
		if n >= max {
			break
		}
		delivered, err := tailSegment(seg, from, scanLimit, max-n, &expect, fn)
		n += delivered
		if err != nil {
			return n, limit, false, err
		}
	}
	// A clean tail delivers from+1 first and consecutive epochs after
	// it; expect trails the stream, so any jump shows up here.
	return n, limit, expect != from+1+uint64(n), nil
}

// segmentFirstEpoch reads the epoch of a segment's first complete valid
// record. ok is false for empty, torn-at-birth or unreadable segments —
// callers treat those as "scan it to be sure".
func segmentFirstEpoch(seg segmentFile) (uint64, bool) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var b [walHeaderSize + walRecordSize]byte
	if _, err := io.ReadFull(f, b[:]); err != nil || !validHeader(b[:], seg.seq) {
		return 0, false
	}
	rec, ok := decodeWALFrame(b[walHeaderSize:])
	return rec.Epoch, ok
}

// tailSegment streams the records of one segment with from < epoch <=
// limit to fn, at most max of them (limit is the durability horizon —
// records past it exist but are not yet fsynced). expect is the
// contiguity cursor shared across segments: it advances by one per
// delivered record, so the caller can detect pruned or lost epochs.
// Invalid frames end the scan silently — they are the torn tail the
// writer is still extending (or recovery will truncate).
func tailSegment(seg segmentFile, from, limit uint64, max int, expect *uint64, fn func(WALRecord) error) (int, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil // pruned between listing and open: records were covered
		}
		return 0, err
	}
	defer f.Close()

	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || !validHeader(hdr[:], seg.seq) {
		return 0, nil
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	count := (size - walHeaderSize) / walRecordSize
	if count <= 0 {
		return 0, nil
	}

	// Binary search for the first record with epoch > from. Epochs are
	// strictly increasing within a segment; a probe that fails to
	// validate can only be the torn tail, so the search moves left.
	var buf [walRecordSize]byte
	probe := func(i int64) (WALRecord, bool) {
		if _, err := f.ReadAt(buf[:], walHeaderSize+i*walRecordSize); err != nil {
			return WALRecord{}, false
		}
		return decodeWALFrame(buf[:])
	}
	lo, hi := int64(0), count
	for lo < hi {
		mid := (lo + hi) / 2
		rec, ok := probe(mid)
		if !ok || rec.Epoch > from {
			hi = mid
		} else {
			lo = mid + 1
		}
	}

	// Deliver in chunked sequential reads: after the binary search the
	// records are contiguous, and one pread per 25-byte record would
	// cost a catch-up batch ~65k syscalls; one pread per chunk serves
	// the same batch in a handful.
	n := 0
	var chunk []byte // allocated on first delivery: a caught-up poll delivers nothing
	i := lo
scan:
	for i < count && n < max {
		if chunk == nil {
			chunk = make([]byte, tailChunkRecords*walRecordSize)
		}
		span := count - i
		if span > tailChunkRecords {
			span = tailChunkRecords
		}
		b := chunk[:span*walRecordSize]
		m, rerr := f.ReadAt(b, walHeaderSize+i*walRecordSize)
		complete := int64(m / walRecordSize) // a partial trailing record is the torn tail
		if complete == 0 {
			// A real read error must propagate (the primary answers 500
			// and the replica retries); swallowing it would make the
			// segment look empty — an apparent gap, and a 410 that parks
			// the replica permanently over a transient I/O failure.
			if rerr != nil && rerr != io.EOF {
				return n, rerr
			}
			break
		}
		for j := int64(0); j < complete && n < max; j++ {
			rec, ok := decodeWALFrame(b[j*walRecordSize : (j+1)*walRecordSize])
			if !ok {
				break scan // torn tail
			}
			if rec.Epoch > limit {
				break scan // not yet durable; served after the next tail sync
			}
			if rec.Epoch <= from {
				continue
			}
			if err := fn(rec); err != nil {
				return n, err
			}
			n++
			if rec.Epoch == *expect {
				*expect++
			}
		}
		i += complete
		if complete < span {
			if rerr != nil && rerr != io.EOF {
				return n, rerr
			}
			break // short read: current end of the segment
		}
	}
	return n, nil
}

// LoadSnapshot restores a dynamic index from a single snapshot file —
// no data directory, no WAL, nothing written. This is the read-replica
// bootstrap path: the file a primary shipped is decoded with the same
// zero-copy arena views and validation as Open, and subsequent log
// records are applied through the dynamic replay seam. It returns the
// index and the epoch the snapshot captured.
func LoadSnapshot(path string, useMMap bool, opts dynamic.Options) (*dynamic.Index, uint64, error) {
	tb := obs.DefaultTracer.Begin("store.snapshot_load", "", 0, false)
	fail := func(err error) (*dynamic.Index, uint64, error) {
		tb.MarkError()
		obs.DefaultTracer.Finish(tb)
		return nil, 0, err
	}
	ar, err := openArena(path, useMMap)
	if err != nil {
		return fail(err)
	}
	ls, err := decodeSnapshot(ar.data)
	if err != nil {
		return fail(fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err))
	}
	d, err := dynamic.Restore(ls.g, ls.landmarks, ls.dists, ls.labels, ls.sigma, ls.delta, ls.epoch, opts)
	if err != nil {
		return fail(fmt.Errorf("store: restore: %w", err))
	}
	tb.Root().SetInt("epoch", int64(ls.epoch))
	tb.Root().SetInt("bytes", int64(len(ar.data)))
	obs.DefaultTracer.Finish(tb)
	return d, ls.epoch, nil
}
