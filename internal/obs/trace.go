package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// TraceHeader carries a request's trace ID across hops: generated at
// the query router (or accepted from the client), forwarded unchanged
// on retried and failed-over backend requests, and echoed on every
// response so a slow query can be correlated across router, backend,
// and slow-query log entries.
const TraceHeader = "X-Qbs-Trace-Id"

var traceSeq atomic.Uint64

// NewTraceID returns a fresh 16-hex-char trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible, but a counter
		// keeps IDs unique rather than failing the request.
		n := traceSeq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Stage is one step of the query serving path.
type Stage uint8

const (
	StageParse     Stage = iota // request decoding and argument validation
	StageSketch                 // landmark label scan + sketch assembly
	StageExpand                 // sketch-guided bidirectional BFS
	StageExtract                // shortest-path subgraph extraction/recovery
	StageSerialize              // response encoding
	NumStages
)

var stageNames = [NumStages]string{"parse", "sketch", "expand", "extract", "serialize"}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Trace accumulates one request's observability payload as it moves
// through the handler: stage durations plus the engine counters the
// searcher reports through its QueryStats out-param. The middleware
// owns the struct; handlers fill it via FromContext (nil-safe on paths
// that never attached one).
type Trace struct {
	ID       string
	StageNs  [NumStages]int64
	HasQuery bool
	U, V     int64
	Dist     int32
	// Spans is the request's span buffer when span tracing is active;
	// nil-safe to record into (see TraceBuf). Handlers use it to hang
	// child spans (WAL append, column re-BFS) under the request root.
	Spans *TraceBuf
	// Engine counters for the slow-query log.
	ArcsScanned  int64
	LabelEntries int64
}

// SetStage records one stage's duration.
func (t *Trace) SetStage(s Stage, ns int64) {
	if t == nil || s >= NumStages {
		return
	}
	t.StageNs[s] = ns
}

type traceCtxKey struct{}

// NewContext attaches tr to ctx.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// FromContext returns the request's Trace, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}
