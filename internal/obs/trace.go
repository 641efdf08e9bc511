package obs

import (
	"context"
	"math/rand/v2"
	"net/http"
	"unsafe"
)

// TraceHeader carries a request's trace ID across hops: generated at
// the query router (or accepted from the client), forwarded unchanged
// on retried and failed-over backend requests, and echoed on every
// response so a slow query can be correlated across router, backend,
// and slow-query log entries.
const TraceHeader = "X-Qbs-Trace-Id"

// NewTraceID returns a fresh 16-hex-char trace ID: 64 bits of the
// runtime's per-thread generator, which is randomly seeded, takes no
// lock and no system call. An ID correlates spans; it guards nothing, so
// it need not be unguessable. The string is its one allocation.
func NewTraceID() string {
	var b TraceIDBuf
	b.fill()
	return string(b[:])
}

// TraceIDBuf is room for one minted trace ID, kept by a caller that
// outlives the trace's TraceBuf: the serving loop's connection, which
// writes a reply's headers after Finish has recycled the TraceBuf.
type TraceIDBuf [16]byte

// fill writes a fresh trace ID into b.
func (b *TraceIDBuf) fill() {
	const digits = "0123456789abcdef"
	n := rand.Uint64()
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[n&15]
		n >>= 4
	}
}

// mint writes a fresh trace ID into b and returns it as a view of b,
// valid until b is written again.
func (b *TraceIDBuf) mint() string {
	b.fill()
	return unsafe.String(&b[0], len(b))
}

// validTraceID reports whether a client-supplied trace ID is one the
// tiers will carry: 1-64 characters of [0-9A-Za-z_-]. The ID is echoed
// in a header, journalled, stored and spliced into the
// /debug/traces/{id} path, so anything longer or wider than that is
// refused at the door rather than at lookup.
func validTraceID(id string) bool {
	if len(id) < 1 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= '0' && c <= '9' || c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// BeginRequest is the trace intake of every tier that serves HTTP. The
// trace ID is the traceparent header's when that parses (with its
// parent span and sampled flag), else a usable X-Qbs-Trace-Id, else
// freshly minted — an unusable client ID is replaced, never refused.
// The trace is begun under a root span called name. Traces begun here
// are requests: Finish lists the slow ones in the slow-query log. The
// caller echoes tb.TraceID on its reply under TraceHeader, in whatever
// way costs its writer least.
//
// tb.TraceID is a piece of r's header when the client sent the ID, and
// a view of ids when it was minted there; a nil ids mints an allocated
// string. Either way it is valid for as long as the request's strings
// and ids are: whatever outlives the request copies it, as a retained
// trace and a journalled event do.
func (t *Tracer) BeginRequest(name string, r *http.Request, ids *TraceIDBuf) *TraceBuf {
	id := firstValue(r.Header, TraceHeader)
	if !validTraceID(id) {
		id = ""
	}
	var parent uint64
	forced := false
	if tid, p, sampled, ok := ParseTraceparent(firstValue(r.Header, traceparentKey)); ok {
		id, parent, forced = tid, p, sampled
	}
	switch {
	case id != "":
	case ids != nil:
		id = ids.mint()
	default:
		id = NewTraceID()
	}
	tb := t.Begin(name, id, parent, forced)
	tb.request = true
	return tb
}

// traceparentKey is TraceparentHeader as a header map holds it.
var traceparentKey = http.CanonicalHeaderKey(TraceparentHeader)

// firstValue is h.Get(k) for a canonical k: Get would make the key
// canonical again, an allocation for one that is not already.
func firstValue(h http.Header, k string) string {
	if vs := h[k]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// StatusWriter captures the status a handler answers with, for the
// instrumentation wrapped around it.
type StatusWriter struct {
	http.ResponseWriter
	code int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the status the client saw: the first one written, 200
// when the handler wrote none.
func (w *StatusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Stage is one step of the query serving path. A handler records each
// stage it runs as a child span of the request, named SpanName.
type Stage uint8

const (
	StageParse     Stage = iota // request start through argument validation
	StageSketch                 // landmark label scan + sketch assembly
	StageExpand                 // sketch-guided bidirectional BFS
	StageExtract                // shortest-path subgraph extraction/recovery
	StageSerialize              // response encoding
	NumStages
)

const stageSpanPrefix = "stage:"

// stageSpanNames are materialized once so the warm path never
// concatenates strings; a stage's name is its span name past the prefix.
var stageSpanNames = [NumStages]string{
	"stage:parse", "stage:sketch", "stage:expand", "stage:extract", "stage:serialize",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageSpanNames[s][len(stageSpanPrefix):]
	}
	return "unknown"
}

// SpanName returns the name of the span the stage is recorded as.
func (s Stage) SpanName() string { return stageSpanNames[s] }

// stageOf maps a span name back to the stage it records.
func stageOf(spanName string) (Stage, bool) {
	for s, name := range stageSpanNames {
		if spanName == name {
			return Stage(s), true
		}
	}
	return 0, false
}

type traceCtxKey struct{}

// NewContext attaches the request's span buffer to ctx.
func NewContext(ctx context.Context, tb *TraceBuf) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tb)
}

// FromContext returns the request's span buffer, or nil off traced
// paths. Every TraceBuf method is nil-safe, so callers just record.
func FromContext(ctx context.Context) *TraceBuf {
	tb, _ := ctx.Value(traceCtxKey{}).(*TraceBuf)
	return tb
}
