package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C trace-context header propagated across
// hops alongside TraceHeader. Its value is
//
//	00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>
//
// where flag 0x01 marks the trace as sampled: a downstream hop that
// sees the bit set retains the trace regardless of its own head
// sampling, so one decision at the edge captures every tier.
const TraceparentHeader = "traceparent"

const (
	// maxTraceSpans bounds one trace's in-flight span buffer. Spans
	// started past the cap are counted in Dropped rather than recorded.
	maxTraceSpans = 32
	// maxStoredSpans bounds one stored trace: the merge of every tier,
	// and every request, that retained spans under its ID. Spans merged
	// in past the cap are counted in DroppedSpans rather than stored.
	maxStoredSpans = 4 * maxTraceSpans
	// maxSpanAttrs bounds per-span attributes.
	maxSpanAttrs = 4
	// freelistCap bounds the tracer's TraceBuf arena.
	freelistCap = 64
)

// Attr is one span attribute. Keys and string values must be static or
// already-materialized strings: the hot path stores them by reference
// and never copies, so recording an attr does not allocate.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Span is one timed operation inside a trace. IDs are process-unique
// 64-bit values; Parent is zero for a trace's local root (the root may
// still carry a remote parent from traceparent, held on the TraceBuf).
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	Dur    time.Duration
	Err    bool
	ended  bool
	nattrs uint8
	attrs  [maxSpanAttrs]Attr
}

// attrMap is the JSON-ready form of a span's or an event's attributes;
// nil when there are none.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsInt {
			m[a.Key] = a.Int
		} else {
			m[a.Key] = a.Str
		}
	}
	return m
}

// spanIDBase randomizes span IDs per process so spans minted by
// different tiers of the same trace cannot collide.
var (
	spanIDBase uint64
	spanIDSeq  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		spanIDBase = binary.LittleEndian.Uint64(b[:])
	}
	spanIDBase |= 1 << 63 // never zero even after small additions wrap
}

func nextSpanID() uint64 { return spanIDBase + spanIDSeq.Add(1) }

// SetStr records a string attribute. Nil-safe; silently drops past the
// attr cap.
func (s *Span) SetStr(key, val string) {
	if s == nil || s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Str: val}
	s.nattrs++
}

// SetInt records an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, val int64) {
	if s == nil || s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Int: val, IsInt: true}
	s.nattrs++
}

// Fail marks the span (and therefore its trace) as errored.
func (s *Span) Fail() {
	if s != nil {
		s.Err = true
	}
}

// End stamps the span's duration. Nil-safe and idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.Dur = time.Since(s.Start)
	s.ended = true
}

// TraceBuf accumulates one trace's spans in a fixed-size buffer drawn
// from the tracer's arena. It is NOT goroutine-safe: a request's spans
// are recorded by the goroutine serving it (engine stages, WAL append
// and router attempts are all serialized on that goroutine).
type TraceBuf struct {
	tracer *Tracer
	// TraceID may stay empty until Finish: local root traces mint an
	// ID only if the trace is retained, keeping the drop path free of
	// the hex-encoding allocation.
	TraceID string
	// remoteParent is the upstream span ID parsed from traceparent;
	// the local root's parent in the assembled cross-process tree.
	remoteParent uint64
	request      bool // begun by BeginRequest: a slow one is slow-logged
	forced       bool
	headKeep     bool
	err          bool
	n            int
	dropped      int
	spans        [maxTraceSpans]Span
}

// Sampled reports whether downstream hops should be told (via the
// traceparent sampled flag) to retain this trace unconditionally.
func (tb *TraceBuf) Sampled() bool {
	return tb != nil && (tb.forced || tb.headKeep)
}

// MarkError flags the trace as errored independent of any span.
func (tb *TraceBuf) MarkError() {
	if tb != nil {
		tb.err = true
	}
}

// Root returns the trace's root span.
func (tb *TraceBuf) Root() *Span {
	if tb == nil || tb.n == 0 {
		return nil
	}
	return &tb.spans[0]
}

func (tb *TraceBuf) start(name string, parent uint64) *Span {
	if tb == nil {
		return nil
	}
	if tb.n >= maxTraceSpans {
		tb.dropped++
		return nil
	}
	sp := &tb.spans[tb.n]
	tb.n++
	*sp = Span{ID: nextSpanID(), Parent: parent, Name: name, Start: time.Now()}
	return sp
}

// StartSpan opens a child of the root span. End it with (*Span).End.
func (tb *TraceBuf) StartSpan(name string) *Span {
	if tb == nil || tb.n == 0 {
		return nil
	}
	return tb.start(name, tb.spans[0].ID)
}

// AddSpan records an already-measured interval (e.g. a stage duration
// filled in by the engine) as a child of the root.
func (tb *TraceBuf) AddSpan(name string, start time.Time, dur time.Duration) *Span {
	if tb == nil || tb.n == 0 {
		return nil
	}
	sp := tb.start(name, tb.spans[0].ID)
	if sp != nil {
		sp.Start = start
		sp.Dur = dur
		sp.ended = true
	}
	return sp
}

// Tracer mints, buffers and tail-samples traces. TraceBufs are drawn
// from a bounded freelist so the steady-state drop path performs no
// heap allocation; retained traces are copied into immutable
// StoredTrace values (the only allocating step) and pushed into the
// ring-buffer SpanStore. Slow request traces are retained a second
// time, by the same pointer, in the slow-query log's own ring: the log
// is a view of retained traces (SlowLog) whose entries outlive any
// number of later head-sampled, errored or background traces.
type Tracer struct {
	slowNs    atomic.Int64
	headEvery atomic.Uint32
	headSeq   atomic.Uint64
	store     *SpanStore
	slow      *ring[StoredTrace]

	mu   sync.Mutex
	free []*TraceBuf
}

// NewTracer creates a tracer whose SpanStore retains up to capacity
// traces. Tail sampling starts with a 100ms slow threshold and head
// sampling disabled.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{
		store: &SpanStore{newRing[StoredTrace](capacity)},
		slow:  newRing[StoredTrace](SlowLogCapacity),
	}
	t.slowNs.Store(int64(100 * time.Millisecond))
	return t
}

// DefaultTracer records background (non-request) spans — WAL fsync
// batches, checkpoints, snapshot loads, compactions, replica apply
// batches — and is the default tracer for servers and routers.
var DefaultTracer = NewTracer(512)

// SetSlowThreshold sets the tail-sampling duration, which is also the
// slow-query log's: traces at least this slow are always retained. Zero
// or negative retains everything.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNs.Store(int64(d)) }

// SetHeadEvery turns on head sampling: one in every n traces is
// retained regardless of duration or status. Zero disables head
// sampling (slow, errored and explicitly sampled traces are still
// kept; that is the point of tail sampling).
func (t *Tracer) SetHeadEvery(n int) {
	if n < 0 {
		n = 0
	}
	t.headEvery.Store(uint32(n))
}

// Store exposes the tracer's retained traces.
func (t *Tracer) Store() *SpanStore { return t.store }

// Begin opens a trace with a root span called name. traceID may be ""
// (an ID is minted lazily if the trace is retained); parent is the
// remote parent span ID from traceparent (0 for none); forced marks
// the trace as explicitly sampled (upstream sampled flag, or a debug
// knob). Nil-safe: a nil tracer returns a nil TraceBuf, and every
// TraceBuf/Span method tolerates nil receivers.
func (t *Tracer) Begin(name, traceID string, parent uint64, forced bool) *TraceBuf {
	if t == nil {
		return nil
	}
	tb := t.get()
	tb.TraceID = traceID
	tb.remoteParent = parent
	tb.forced = forced
	if n := t.headEvery.Load(); n > 0 {
		tb.headKeep = (t.headSeq.Add(1)-1)%uint64(n) == 0
	}
	tb.start(name, 0)
	return tb
}

func (t *Tracer) get() *TraceBuf {
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		tb := t.free[n-1]
		t.free = t.free[:n-1]
		t.mu.Unlock()
		return tb
	}
	t.mu.Unlock()
	return &TraceBuf{tracer: t}
}

func (t *Tracer) put(tb *TraceBuf) {
	*tb = TraceBuf{tracer: t}
	t.mu.Lock()
	if len(t.free) < freelistCap {
		t.free = append(t.free, tb)
	}
	t.mu.Unlock()
}

// Finish closes the trace: the root span is ended if still open, the
// tail-sampling decision is made, and the TraceBuf is recycled. If the
// trace is retained (slow, errored, explicitly sampled, or head
// sampled) it is copied into the SpanStore under its trace ID — minted
// now if Begin received none — and the stored trace is returned; nil
// means dropped. The drop path allocates nothing.
func (t *Tracer) Finish(tb *TraceBuf) *StoredTrace {
	if t == nil || tb == nil || tb.n == 0 {
		return nil
	}
	root := &tb.spans[0]
	root.End()
	errored := tb.err
	for i := 0; i < tb.n && !errored; i++ {
		errored = tb.spans[i].Err
	}
	slowNs := t.slowNs.Load()
	slow := slowNs <= 0 || int64(root.Dur) >= slowNs
	if !(tb.forced || tb.headKeep || errored || slow) {
		t.put(tb)
		return nil
	}
	if tb.TraceID == "" {
		tb.TraceID = NewTraceID()
	}
	st := tb.snapshot(errored)
	t.store.add(st)
	if slow && tb.request {
		t.slow.add(st)
	}
	t.put(tb)
	return st
}

// StoredSpan is the immutable, JSON-ready form of a retained span.
// Span IDs are rendered as 16-hex strings: JSON numbers cannot carry
// 64 bits losslessly.
type StoredSpan struct {
	SpanID      string         `json:"span_id"`
	ParentID    string         `json:"parent_id,omitempty"`
	Name        string         `json:"name"`
	StartUnixNs int64          `json:"start_unix_ns"`
	DurationNs  int64          `json:"duration_ns"`
	Error       bool           `json:"error,omitempty"`
	Attrs       map[string]any `json:"attrs,omitempty"`
}

// StoredTrace is one retained trace: the local root plus every span
// recorded on this process, ready for /debug/traces/{id}. Router-side
// merging folds the per-tier StoredTraces of one trace ID into a
// single tree.
type StoredTrace struct {
	TraceID      string       `json:"trace_id"`
	Root         string       `json:"root"`
	StartUnixNs  int64        `json:"start_unix_ns"`
	DurationNs   int64        `json:"duration_ns"`
	Error        bool         `json:"error,omitempty"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []StoredSpan `json:"spans"`
}

func spanIDString(id uint64) string {
	if id == 0 {
		return ""
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// snapshot copies the trace out. Span starts are the root's wall-clock
// start plus the span's monotonic offset from it, so within one trace
// "ends before the next begins" holds to the nanosecond — two separate
// wall-clock readings would not guarantee it.
func (tb *TraceBuf) snapshot(errored bool) *StoredTrace {
	root := &tb.spans[0]
	rootNs := root.Start.UnixNano()
	st := &StoredTrace{
		TraceID:      tb.TraceID,
		Root:         root.Name,
		StartUnixNs:  rootNs,
		DurationNs:   int64(root.Dur),
		Error:        errored,
		DroppedSpans: tb.dropped,
		Spans:        make([]StoredSpan, tb.n),
	}
	for i := 0; i < tb.n; i++ {
		sp := &tb.spans[i]
		out := StoredSpan{
			SpanID:      spanIDString(sp.ID),
			ParentID:    spanIDString(sp.Parent),
			Name:        sp.Name,
			StartUnixNs: rootNs + int64(sp.Start.Sub(root.Start)),
			DurationNs:  int64(sp.Dur),
			Error:       sp.Err,
			Attrs:       attrMap(sp.attrs[:sp.nattrs]),
		}
		if i == 0 {
			out.ParentID = spanIDString(tb.remoteParent)
		}
		st.Spans[i] = out
	}
	return st
}

// SpanStore is the ring of retained traces, one slot per trace ID.
type SpanStore struct{ ring *ring[StoredTrace] }

func (s *SpanStore) add(st *StoredTrace) {
	// Several tiers can share one process — and therefore one tracer —
	// yet finish the same trace independently (a router and the backend
	// it proxied to in tests, or a request trace joined by a background
	// root). Fold those into a single slot so Get returns the whole
	// tree; the earlier-starting side is the outermost root and wins the
	// merge. Only retained traces reach add, so the scan is off the warm
	// path.
	sameID := func(old *StoredTrace) bool { return old.TraceID == st.TraceID }
	merge := func(old *StoredTrace) *StoredTrace {
		if old.StartUnixNs <= st.StartUnixNs {
			return MergeStored(old, st)
		}
		return MergeStored(st, old)
	}
	for attempt := 0; attempt < 2; attempt++ {
		if s.ring.replace(sameID, merge) {
			return
		}
	}
	s.ring.add(st)
}

// Get returns the retained trace with the given ID, or nil.
func (s *SpanStore) Get(id string) *StoredTrace {
	if s == nil || id == "" {
		return nil
	}
	return s.ring.find(func(st *StoredTrace) bool { return st.TraceID == id })
}

// Recent returns up to limit retained traces, newest first, filtered
// to those at least minDur long (and errored, if errOnly).
func (s *SpanStore) Recent(limit int, minDur time.Duration, errOnly bool) []*StoredTrace {
	if s == nil {
		return nil
	}
	return s.ring.recent(limit, func(st *StoredTrace) bool {
		return st.DurationNs >= int64(minDur) && (st.Error || !errOnly)
	})
}

// MergeStored folds src's spans into dst (same trace ID), deduplicating
// by span ID. dst's root metadata wins; src-only spans are appended up
// to maxStoredSpans and counted in DroppedSpans past it, so a client
// that sends one sampled trace ID with every request holds one bounded
// slot, merged in constant time. Either side may be nil.
func MergeStored(dst, src *StoredTrace) *StoredTrace {
	if dst == nil {
		return src
	}
	if src == nil || src.TraceID != dst.TraceID {
		return dst
	}
	seen := make(map[string]bool, len(dst.Spans)+len(src.Spans))
	out := &StoredTrace{
		TraceID:      dst.TraceID,
		Root:         dst.Root,
		StartUnixNs:  dst.StartUnixNs,
		DurationNs:   dst.DurationNs,
		Error:        dst.Error || src.Error,
		DroppedSpans: dst.DroppedSpans + src.DroppedSpans,
	}
	out.Spans = append(out.Spans, dst.Spans...)
	for _, sp := range dst.Spans {
		seen[sp.SpanID] = true
	}
	for _, sp := range src.Spans {
		switch {
		case seen[sp.SpanID]:
		case len(out.Spans) >= maxStoredSpans:
			out.DroppedSpans++
		default:
			seen[sp.SpanID] = true
			out.Spans = append(out.Spans, sp)
		}
	}
	return out
}

// TraceSummary is the /debug/traces list form of a retained trace.
type TraceSummary struct {
	TraceID     string  `json:"trace_id"`
	Root        string  `json:"root"`
	StartUnixNs int64   `json:"start_unix_ns"`
	DurationMs  float64 `json:"duration_ms"`
	Error       bool    `json:"error"`
	Spans       int     `json:"spans"`
}

// Summary condenses a stored trace for listing.
func (st *StoredTrace) Summary() TraceSummary {
	return TraceSummary{
		TraceID:     st.TraceID,
		Root:        st.Root,
		StartUnixNs: st.StartUnixNs,
		DurationMs:  float64(st.DurationNs) / 1e6,
		Error:       st.Error,
		Spans:       len(st.Spans),
	}
}

// FormatTraceparent renders the W3C traceparent header value, or ""
// when traceparent cannot carry traceID (see carriesTraceID): the hop
// then gets TraceHeader alone. A 16-hex ID (QbS mints them) is
// left-padded with zeros; parent is the span the next hop should attach
// under.
func FormatTraceparent(traceID string, parent uint64, sampled bool) string {
	if !carriesTraceID(traceID) {
		return ""
	}
	var b strings.Builder
	b.Grow(55)
	b.WriteString("00-")
	for i := len(traceID); i < 32; i++ {
		b.WriteByte('0')
	}
	b.WriteString(traceID)
	b.WriteByte('-')
	var p [8]byte
	binary.BigEndian.PutUint64(p[:], parent)
	var ph [16]byte
	hex.Encode(ph[:], p[:])
	b.Write(ph[:])
	if sampled {
		b.WriteString("-01")
	} else {
		b.WriteString("-00")
	}
	return b.String()
}

// ParseTraceparent decodes a traceparent value. A 32-hex trace ID with
// 16 leading zeros is normalized back to the 16-hex form used by
// TraceHeader so both headers agree on one ID string.
func ParseTraceparent(v string) (traceID string, parent uint64, sampled, ok bool) {
	if len(v) < 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", 0, false, false
	}
	id := v[3:35]
	if !isHex(id) {
		return "", 0, false, false
	}
	if strings.TrimLeft(id[:16], "0") == "" {
		id = id[16:]
	}
	var pb [8]byte
	if _, err := hex.Decode(pb[:], []byte(v[36:52])); err != nil {
		return "", 0, false, false
	}
	parent = binary.BigEndian.Uint64(pb[:])
	var fb [1]byte
	if _, err := hex.Decode(fb[:], []byte(v[53:55])); err != nil {
		return "", 0, false, false
	}
	sampled = fb[0]&1 == 1
	return id, parent, sampled, true
}

// carriesTraceID reports whether a traceparent header can carry id so
// that ParseTraceparent on the next hop reads back the same string: 16
// or 32 lowercase hex digits (W3C trace-context forbids uppercase), the
// 32-digit form not beginning with 16 zeros (it would be read back as
// its last 16), and not all zeros (W3C's invalid ID). Any other ID a
// client may send under TraceHeader travels in that header alone.
func carriesTraceID(id string) bool {
	if len(id) != 16 && !(len(id) == 32 && strings.TrimLeft(id[:16], "0") != "") {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return strings.TrimLeft(id, "0") != ""
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}
