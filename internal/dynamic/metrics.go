package dynamic

import (
	"qbs/internal/obs"
)

// A failed compaction: the index keeps serving from the unfolded
// overlay, and an automatic fold's write still succeeds, so nothing else
// would say so. Its dynamic.compact root span is marked errored with the
// same stage and error.
var evCompactFailed = obs.DefaultJournal.Def("dynamic", "compact_failed", obs.LevelError)
