package dynamic

import (
	"qbs/internal/obs"
)

// A failed background compaction: the index keeps serving from the
// overlay, so nothing else would say so. Its dynamic.compact root span
// is marked errored with the same stage and error.
var evCompactFailed = obs.DefaultJournal.Def("dynamic", "compact_failed", obs.LevelError)
