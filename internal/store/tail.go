package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// Replication read surface: the primary side of WAL shipping. A store
// already orders every epoch advance as one fixed-size CRC-framed log
// record; replication is then just reading those records back out,
// through the segment reader recovery uses (readSegment, wal.go) —
// ReadWAL serves any suffix of the log to a tailing replica, and
// SetWALRetain parks the pruning floor so a checkpoint never deletes a
// segment a registered replica still needs. A replica adopts a shipped
// snapshot through LoadSnapshot, the snapshot adoption Open runs, and
// applies the records with dynamic.Index.Replay, the replay Open runs.
// See internal/replica for the HTTP protocol layered on top.

// WALRecordSize is the framed size of one log record — the unit of the
// replication wire format and of byte-lag accounting.
const WALRecordSize = walRecordSize

// decodeWALFrame validates one framed record (length, checksum, op) and
// decodes it. It is the single framing authority shared by the segment
// reader and (via internal/replica) the wire protocol.
func decodeWALFrame(b []byte) (dynamic.Record, bool) {
	if binary.LittleEndian.Uint32(b[0:]) != walPayload ||
		binary.LittleEndian.Uint32(b[4:]) != crc32.Checksum(b[8:walRecordSize], crcTable) {
		return dynamic.Record{}, false
	}
	op := b[16]
	if op != dynamic.OpInsert && op != dynamic.OpDelete && op != dynamic.OpCompact {
		return dynamic.Record{}, false
	}
	return dynamic.Record{
		Epoch: binary.LittleEndian.Uint64(b[8:]),
		U:     graph.V(binary.LittleEndian.Uint32(b[17:])),
		W:     graph.V(binary.LittleEndian.Uint32(b[21:])),
		Op:    op,
	}, true
}

// EncodeWALFrame appends the framing of rec to dst: the on-disk record,
// checksum included, which is also what replication ships, so a replica
// validates shipped records exactly as recovery validates the log.
func EncodeWALFrame(dst []byte, rec dynamic.Record) []byte {
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
func DecodeWALFrame(b []byte) (dynamic.Record, error) {
	if len(b) < walRecordSize {
		return dynamic.Record{}, fmt.Errorf("store: short WAL frame (%d bytes)", len(b))
	}
	rec, ok := decodeWALFrame(b[:walRecordSize])
	if !ok {
		return dynamic.Record{}, fmt.Errorf("store: corrupt WAL frame")
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
func (s *Store) ReadWAL(from uint64, max int, fn func(dynamic.Record) error) (n int, limit uint64, gap bool, err error) {
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
	// leases have let old segments pile up. A segment pruned since the
	// listing held only covered records: it is passed over.
	start := 0
	for i := len(segs) - 1; i >= 0; i-- {
		res, err := segs[i].read(0, ^uint64(0), 1, func(dynamic.Record) error { return nil })
		if err != nil && !os.IsNotExist(err) {
			return 0, limit, false, err
		}
		if res.records == 1 && res.lastEpoch <= from+1 {
			start = i
			break
		}
	}
	// A clean tail delivers from+1 first and consecutive epochs after
	// it; expect trails the stream, so any jump shows up at the end.
	expect := from + 1
	for _, seg := range segs[start:] {
		if n >= max {
			break
		}
		res, err := seg.read(from, scanLimit, max-n, func(rec dynamic.Record) error {
			if rec.Epoch == expect {
				expect++
			}
			return fn(rec)
		})
		n += res.records
		if err != nil && !os.IsNotExist(err) {
			return n, limit, false, err
		}
	}
	return n, limit, expect != from+1+uint64(n), nil
}

// LoadSnapshot restores a dynamic index from a single snapshot file —
// no data directory, no WAL, nothing written. This is the read-replica
// bootstrap path: the file a primary shipped is adopted as Open adopts
// its snapshot (adoptSnapshot: zero-copy arena views, the same
// validation), and later log records are applied through
// dynamic.Index.Replay. It returns the index and the epoch the snapshot
// captured.
func LoadSnapshot(path string, useMMap bool, opts dynamic.Options) (*dynamic.Index, uint64, error) {
	tb := obs.DefaultTracer.Begin("store.snapshot_load", "", 0, false)
	defer obs.DefaultTracer.Finish(tb)
	d, _, err := adoptSnapshot(path, useMMap, opts)
	if err != nil {
		tb.MarkError()
		return nil, 0, err
	}
	tb.Root().SetInt("epoch", int64(d.Epoch()))
	return d, d.Epoch(), nil
}
