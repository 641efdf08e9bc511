package store

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"qbs/internal/obs"
)

// Durable-store instrumentation, registered on the process-wide
// registry: WAL append and fsync latency distributions, checkpoint
// duration, and the size of the last written snapshot. The series
// aggregate across every Store in the process (stores live in
// throwaway directories, so a per-directory label would be noise).
var (
	mWALAppendNs  = obs.Default.Histogram("qbs_wal_append_ns", "")
	mWALFsyncNs   = obs.Default.Histogram("qbs_wal_fsync_ns", "")
	mWALRecords   = obs.Default.Counter("qbs_wal_records_total", "")
	mCheckpoints  = obs.Default.Counter("qbs_checkpoints_total", "")
	mCheckpointNs = obs.Default.Gauge("qbs_checkpoint_last_ns", "")
	mSnapshotSize = obs.Default.Gauge("qbs_snapshot_bytes", "")
)

// Structured events on the process journal: durability faults and
// lifecycle transitions that previously vanished into returned errors.
// fsync errors carry a tight rate limit — a dying disk fails every
// batch and must not wash the journal.
var (
	evFsyncError      = obs.DefaultJournal.DefRate("store", "fsync_error", obs.LevelError, 2, 4)
	evCheckpoint      = obs.DefaultJournal.Def("store", "checkpoint", obs.LevelInfo)
	evCheckpointError = obs.DefaultJournal.Def("store", "checkpoint_error", obs.LevelError)
	evSnapshotRetired = obs.DefaultJournal.Def("store", "snapshot_retired", obs.LevelWarn)
	evSnapshotPruned  = obs.DefaultJournal.Def("store", "snapshot_pruned", obs.LevelDebug)
)

// qbs_build_info is the standard build-identity gauge (constant 1, all
// information in the labels): the Go toolchain, the module version when
// built from a tagged checkout, and the on-disk format versions this
// binary reads and writes. It lives in the store package because store
// owns the format version constants and is linked into every binary
// that exposes a mux (server, router, replica).
func init() {
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	labels := fmt.Sprintf(
		`go_version=%q,module_version=%q,snapshot_format="%d",dynamic_snapshot_format="%d",wal_format="%d"`,
		runtime.Version(), version, schemaV3.version, schemaV5.version, walVersion)
	obs.Default.Gauge("qbs_build_info", labels).Set(1)
}
