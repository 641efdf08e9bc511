package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// Options tunes the durable store.
type Options struct {
	// Dynamic configures the in-memory index (repair budget, compaction).
	Dynamic dynamic.Options
	// SyncEvery batches WAL fsyncs: the log is fsynced after this many
	// appends (and at rotation, checkpoint and close). <= 1 fsyncs every
	// append — the durable default; larger values trade the tail of the
	// log on power loss for write throughput.
	SyncEvery int
	// SegmentBytes rotates WAL segments past this size (0 = 64 MiB).
	SegmentBytes int64
	// ReadOnly opens without attaching the WAL: no writes, no
	// checkpoints, and no truncation of torn tails.
	ReadOnly bool
	// MMap maps the snapshot instead of reading it (the mapping lives
	// for the rest of the process; see arena).
	MMap bool
	// KeepSnapshots is how many snapshot generations checkpoints retain
	// (0 = 2: the new one plus one fallback).
	KeepSnapshots int
}

func (o Options) withDefaults() Options {
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o
}

// ErrReadOnly is returned by write operations on a read-only store.
var ErrReadOnly = errors.New("store: read-only")

// ErrClosed is returned when the store has been closed.
var ErrClosed = errors.New("store: closed")

const (
	currentFile = "CURRENT"
	lockFile    = "LOCK"
	// diSnapshotName is the one file of a directed store.
	diSnapshotName = "directed.qbss"
)

// Store binds a dynamic index to a data directory: every applied update
// is WAL-logged before its epoch publishes, and Checkpoint persists a
// snapshot and prunes the log. Store implements dynamic.UpdateLogger.
type Store struct {
	dir  string
	opts Options
	d    *dynamic.Index

	ckptMu sync.Mutex // serialises checkpoints

	walMu        sync.Mutex // guards the fields below (appends vs rotation)
	w            *walWriter // nil when read-only
	snaps        []uint64   // intact snapshot epochs on disk, ascending
	retain       uint64     // replication pruning floor; see SetWALRetain
	lastAppended uint64     // newest epoch written to the log
	syncedEpoch  uint64     // newest epoch known fsynced (replication serves up to here)
	lastTailSync time.Time  // last replication-driven fsync; rate-limits ReadWAL syncs
	closed       bool

	lock *os.File // held flock for writable stores (nil if read-only / unsupported)
}

func walDir(dir string) string { return filepath.Join(dir, "wal") }

// Exists reports whether dir already holds an undirected store (a
// CURRENT pointer or any snapshot file).
func Exists(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, currentFile)); err == nil {
		return true
	}
	names, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.qbss"))
	return len(names) > 0
}

// DiExists reports whether dir already holds a directed store.
func DiExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, diSnapshotName))
	return err == nil
}

// claimDataDir makes dir and takes its writer lock for the creation of
// a store, refusing a directory that already holds one — of either
// kind: one directory is the home of one index over one graph. What is
// there is named along with the flag that opens it.
func claimDataDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case Exists(dir):
		err = fmt.Errorf("store: %s already contains an undirected store; open it without -directed", dir)
	case DiExists(dir):
		err = fmt.Errorf("store: %s already contains a directed store; open it with -directed", dir)
	default:
		return lock, nil
	}
	unlockDataDir(lock)
	return nil, err
}

// CreateDi initialises dir as the durable home of a directed index: the
// frozen state st of an index over g is written atomically as one
// snapshot. dir must not already contain a store.
func CreateDi(dir string, g *graph.DiGraph, st core.State) error {
	lock, err := claimDataDir(dir)
	if err != nil {
		return err
	}
	defer unlockDataDir(lock)
	return writeFileAtomic(dir, diSnapshotName, func(f *os.File) error {
		return encodeDiSnapshot(f, g, st)
	})
}

// OpenDi recovers the directed index persisted in dir and the digraph it
// is over: the snapshot is validated and adopted zero-copy (label
// columns, the dual CSR and Δ are typed views into one arena), and only
// the derived meta state (APSP, O(|R|³)) is recomputed. useMMap maps the
// file read-only instead of reading it (the mapping lives until process
// exit).
func OpenDi(dir string, useMMap bool) (*core.Index, *graph.DiGraph, error) {
	ar, err := openArena(filepath.Join(dir, diSnapshotName), useMMap)
	if err != nil {
		return nil, nil, err
	}
	ix, g, err := decodeDiSnapshot(ar.data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: directed snapshot %s: %w", diSnapshotName, err)
	}
	return ix, g, nil
}

// Create initialises dir as the durable home of d: the current state is
// written as the initial snapshot and the WAL is attached, so every
// subsequent update is logged. dir must not already contain a store.
func Create(dir string, d *dynamic.Index, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.ReadOnly {
		return nil, ErrReadOnly
	}
	lock, err := claimDataDir(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(walDir(dir), 0o755); err != nil {
		unlockDataDir(lock)
		return nil, err
	}
	ps := d.Persistent()
	name, err := writeSnapshotFile(dir, ps)
	if err != nil {
		unlockDataDir(lock)
		return nil, err
	}
	if err := writeCurrent(dir, name); err != nil {
		unlockDataDir(lock)
		return nil, err
	}
	w, err := newWALWriter(walDir(dir), 1, opts.SegmentBytes, opts.SyncEvery, nil)
	if err != nil {
		unlockDataDir(lock)
		return nil, err
	}
	s := &Store{
		dir: dir, opts: opts, d: d, w: w,
		snaps:  []uint64{ps.Epoch},
		retain: ^uint64(0), lastAppended: ps.Epoch, syncedEpoch: ps.Epoch,
		lock: lock,
	}
	d.SetLogger(s)
	return s, nil
}

// Open recovers the index from dir: the newest valid snapshot is loaded
// zero-copy, WAL records beyond its epoch are replayed through the
// incremental repair path, torn tails are truncated (writable opens),
// and — unless read-only — a fresh WAL segment is attached for new
// writes.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	var lock *os.File
	if !opts.ReadOnly {
		// Writable opens scan and may truncate the log, so they must be
		// exclusive — a second writer would truncate segments this process
		// is still appending to. (Read-only opens skip the lock: they never
		// modify the directory and tolerate observing a consistent prefix
		// of a live writer's log.)
		var err error
		if lock, err = lockDataDir(dir); err != nil {
			return nil, err
		}
	}
	// Recovery is a root span: it runs before any request can arrive, and
	// a slow restore (large snapshot, long replay tail) is exactly the
	// kind of invisible stall the trace store exists to expose.
	tb := obs.DefaultTracer.Begin("store.recover", "", 0, false)
	fail := func(err error) (*Store, error) {
		tb.MarkError()
		obs.DefaultTracer.Finish(tb)
		unlockDataDir(lock)
		return nil, err
	}

	loadSp := tb.StartSpan("snapshot.load")
	ls, snaps, damaged, err := loadNewestSnapshot(dir, opts.MMap)
	if err != nil {
		loadSp.Fail()
		loadSp.End()
		return fail(err)
	}
	if !opts.ReadOnly {
		// Snapshots that were readable but failed validation are provably
		// corrupt and must leave the pruning bookkeeping: keeping them
		// would let a later checkpoint retire the intact fallback (and its
		// WAL prefix) in favour of garbage.
		for _, name := range damaged {
			_ = os.Remove(filepath.Join(dir, name))
			evSnapshotRetired.Emit(obs.Str("file", name), obs.Str("reason", "damaged"))
		}
	}
	d, err := dynamic.Restore(ls.g, ls.landmarks, ls.dists, ls.labels, ls.sigma, ls.delta, ls.epoch, opts.Dynamic)
	if err != nil {
		loadSp.Fail()
		loadSp.End()
		return fail(fmt.Errorf("store: restore: %w", err))
	}
	loadSp.SetInt("epoch", int64(ls.epoch))
	loadSp.End()

	replaySp := tb.StartSpan("wal.replay")
	replayed := 0
	segs, err := listSegments(walDir(dir))
	if err != nil {
		replaySp.Fail()
		replaySp.End()
		return fail(err)
	}
	var prior []segmentInfo
	maxSeq := uint64(0)
	for i, seg := range segs {
		last := i == len(segs)-1
		res, err := scanSegment(seg.path, seg.seq, func(rec WALRecord) error {
			if rec.Epoch <= ls.epoch {
				return nil // already folded into the snapshot
			}
			replayed++
			if rec.Op == WALCompact {
				return d.ReplayEpoch(rec.Epoch)
			}
			return d.ReplayEdge(rec.U, rec.W, rec.Op == WALInsert, rec.Epoch)
		})
		if err != nil {
			replaySp.Fail()
			replaySp.End()
			return fail(fmt.Errorf("store: replay %s: %w", filepath.Base(seg.path), err))
		}
		if res.torn && !last {
			replaySp.Fail()
			replaySp.End()
			return fail(fmt.Errorf("store: segment %s is corrupt mid-log (valid segments follow)", filepath.Base(seg.path)))
		}
		if res.torn && !opts.ReadOnly {
			if res.badHeader {
				// Crash during rotation: the segment never became valid.
				if err := os.Remove(seg.path); err != nil {
					return fail(err)
				}
			} else if err := os.Truncate(seg.path, res.lastGood); err != nil {
				return fail(err)
			}
		}
		if seg.seq > maxSeq {
			maxSeq = seg.seq
		}
		if !res.badHeader {
			prior = append(prior, segmentInfo{seq: seg.seq, lastEpoch: res.lastEpoch, hasRecords: res.records > 0})
		}
	}
	replaySp.SetInt("segments", int64(len(segs)))
	replaySp.SetInt("records", int64(replayed))
	replaySp.End()

	// Everything recovered from disk counts as durable for replication
	// purposes: it survived to be replayed.
	s := &Store{
		dir: dir, opts: opts, d: d,
		snaps:  snaps,
		retain: ^uint64(0), lastAppended: d.Epoch(), syncedEpoch: d.Epoch(),
		lock: lock,
	}
	if !opts.ReadOnly {
		w, err := newWALWriter(walDir(dir), maxSeq+1, opts.SegmentBytes, opts.SyncEvery, prior)
		if err != nil {
			return fail(err)
		}
		s.w = w
		d.SetLogger(s)
	}
	tb.Root().SetInt("epoch", int64(d.Epoch()))
	obs.DefaultTracer.Finish(tb)
	return s, nil
}

// Index returns the recovered (or adopted) dynamic index.
func (s *Store) Index() *dynamic.Index { return s.d }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store was opened read-only.
func (s *Store) ReadOnly() bool { return s.opts.ReadOnly }

// LogUpdate implements dynamic.UpdateLogger.
func (s *Store) LogUpdate(epoch uint64, u, w graph.V, insert bool) error {
	op := uint8(WALInsert)
	if !insert {
		op = WALDelete
	}
	return s.logRecord(WALRecord{Epoch: epoch, U: u, W: w, Op: op})
}

// LogCompaction implements dynamic.UpdateLogger.
func (s *Store) LogCompaction(epoch uint64) error {
	return s.logRecord(WALRecord{Epoch: epoch, Op: WALCompact})
}

func (s *Store) logRecord(rec WALRecord) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.append(rec); err != nil {
		return err
	}
	s.lastAppended = rec.Epoch
	if s.w.unsynced == 0 { // append fsynced (SyncEvery boundary or <=1)
		s.syncedEpoch = rec.Epoch
	}
	return nil
}

// Checkpoint persists the current snapshot, points CURRENT at it,
// prunes snapshot generations beyond Options.KeepSnapshots, rotates the
// WAL and deletes segments wholly covered by the retained snapshots.
// Writers keep running during the snapshot write: the state captured is
// one consistent published epoch, and updates that land meanwhile stay
// in the log. It returns the epoch persisted.
func (s *Store) Checkpoint() (uint64, error) {
	if s.opts.ReadOnly {
		return 0, ErrReadOnly
	}
	tb := obs.DefaultTracer.Begin("store.checkpoint", "", 0, false)
	epoch, err := s.checkpoint(tb)
	if err != nil {
		tb.MarkError()
		evCheckpointError.Emit(obs.Str("error", err.Error()))
	} else {
		tb.Root().SetInt("epoch", int64(epoch))
		evCheckpoint.Emit(obs.Int("epoch", int64(epoch)))
	}
	obs.DefaultTracer.Finish(tb)
	return epoch, err
}

func (s *Store) checkpoint(tb *obs.TraceBuf) (uint64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.walMu.Lock()
	if s.closed {
		s.walMu.Unlock()
		return 0, ErrClosed
	}
	lastSnap := s.snaps[len(s.snaps)-1]
	s.walMu.Unlock()

	start := time.Now()
	ps := s.d.Persistent()
	if ps.Epoch == lastSnap {
		return ps.Epoch, nil // nothing new to persist
	}
	writeSp := tb.StartSpan("snapshot.write")
	name, err := writeSnapshotFile(s.dir, ps)
	if err != nil {
		writeSp.Fail()
		writeSp.End()
		return 0, err
	}
	if fi, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
		mSnapshotSize.Set(fi.Size())
		writeSp.SetInt("bytes", fi.Size())
	}
	writeSp.End()
	if err := writeCurrent(s.dir, name); err != nil {
		return 0, err
	}
	defer func() {
		mCheckpointNs.Set(time.Since(start).Nanoseconds())
		mCheckpoints.Inc()
	}()

	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return ps.Epoch, nil // persisted, but the log is gone; leave layout as is
	}
	s.snaps = append(s.snaps, ps.Epoch)
	sort.Slice(s.snaps, func(i, j int) bool { return s.snaps[i] < s.snaps[j] })
	for len(s.snaps) > s.opts.KeepSnapshots {
		old := s.snaps[0]
		s.snaps = s.snaps[1:]
		if err := os.Remove(filepath.Join(s.dir, snapshotFileName(old))); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		evSnapshotPruned.Emit(obs.Int("epoch", int64(old)))
	}
	if err := s.w.rotate(); err != nil {
		return 0, err
	}
	s.syncedEpoch = s.lastAppended // rotation flushed the old segment
	// Prune up to whatever both recovery and replication can spare: the
	// oldest retained snapshot, lowered to the replication retain floor
	// so a registered replica's next record is never deleted.
	upto := s.snaps[0]
	if s.retain < upto {
		upto = s.retain
	}
	if err := s.w.prune(upto); err != nil {
		return 0, err
	}
	return ps.Epoch, nil
}

// Close detaches the index from the store and flushes and closes the
// WAL. The index itself remains usable in memory; further updates are
// simply no longer durable.
func (s *Store) Close() error {
	// Detach first (synchronises with in-flight writers) so no append can
	// race the close below. Safe ordering: SetLogger takes the index lock,
	// never the store's.
	s.d.SetLogger(nil)
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	defer func() {
		unlockDataDir(s.lock)
		s.lock = nil
	}()
	if s.w == nil {
		return nil
	}
	err := s.w.close()
	if err == nil {
		s.syncedEpoch = s.lastAppended // close flushed everything appended
	}
	return err
}

// writeCurrent atomically points CURRENT at a snapshot file name.
func writeCurrent(dir, name string) error {
	tmp := filepath.Join(dir, currentFile+".tmp")
	if err := os.WriteFile(tmp, []byte(name+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadNewestSnapshot loads the newest snapshot that validates: the one
// CURRENT names first, then every on-disk snapshot in descending epoch
// order. Alongside the loaded snapshot it returns the ascending epochs
// of the snapshot files believed intact (for checkpoint pruning
// bookkeeping) and the names of files that were readable but failed
// validation — provably corrupt, excluded from the intact list, and
// deletable by a writable open. A file that could not be read at all
// (I/O error) is neither trusted nor condemned.
func loadNewestSnapshot(dir string, useMMap bool) (*loadedSnapshot, []uint64, []string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snapshot-*.qbss"))
	if err != nil {
		return nil, nil, nil, err
	}
	var epochs []uint64
	for _, p := range names {
		if e, ok := snapshotEpoch(filepath.Base(p)); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

	tried := map[string]bool{}
	var damaged []string        // readable but failed validation: provably corrupt
	failed := map[string]bool{} // any tried-and-rejected file, incl. I/O failures
	var firstErr error
	try := func(name string) *loadedSnapshot {
		if name == "" || tried[name] {
			return nil
		}
		tried[name] = true
		ar, err := openArena(filepath.Join(dir, name), useMMap)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed[name] = true
			return nil
		}
		ls, err := decodeSnapshot(ar.data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: snapshot %s: %w", name, err)
			}
			damaged = append(damaged, name)
			failed[name] = true
			return nil
		}
		ls.arena = ar
		return ls
	}
	finish := func(ls *loadedSnapshot) (*loadedSnapshot, []uint64, []string, error) {
		// The intact list drives checkpoint pruning; nothing that was
		// tried and rejected — whether corrupt or merely unreadable — may
		// count as a retained generation, or pruning could retire the
		// validated fallback (and its WAL prefix) in its favour.
		intact := epochs[:0]
		for _, e := range epochs {
			if !failed[snapshotFileName(e)] {
				intact = append(intact, e)
			}
		}
		return ls, intact, damaged, nil
	}

	if cur, err := os.ReadFile(filepath.Join(dir, currentFile)); err == nil {
		name := string(cur)
		for len(name) > 0 && (name[len(name)-1] == '\n' || name[len(name)-1] == '\r') {
			name = name[:len(name)-1]
		}
		if filepath.Base(name) == name { // refuse path traversal
			if ls := try(name); ls != nil {
				return finish(ls)
			}
		}
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		if ls := try(snapshotFileName(epochs[i])); ls != nil {
			return finish(ls)
		}
	}
	if firstErr != nil {
		return nil, nil, nil, fmt.Errorf("store: no valid snapshot in %s: %w", dir, firstErr)
	}
	return nil, nil, nil, fmt.Errorf("store: no snapshot found in %s", dir)
}
