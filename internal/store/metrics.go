package store

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"qbs/internal/obs"
)

// WAL append latency, what every logged update pays, on the
// process-wide registry. It aggregates across every Store in the
// process (stores live in throwaway directories, so a per-directory
// label would be noise). Fsync batches and checkpoints are root spans
// (wal.fsync, store.checkpoint): a slow or failed one is retained with
// its batch size, epoch and snapshot bytes.
var mWALAppendNs = obs.Default.Histogram("qbs_wal_append_ns", "")

// Structured events on the process journal: durability faults and
// lifecycle transitions that previously vanished into returned errors.
// fsync errors carry a tight rate limit — a dying disk fails every
// batch and must not wash the journal.
var (
	evFsyncError      = obs.DefaultJournal.DefRate("store", "fsync_error", obs.LevelError, 2, 4)
	evCheckpointError = obs.DefaultJournal.Def("store", "checkpoint_error", obs.LevelError)
	evSnapshotRetired = obs.DefaultJournal.Def("store", "snapshot_retired", obs.LevelWarn)
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
