package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog is a bounded in-memory ring of the slowest recent requests.
// Entries at or above the threshold overwrite the oldest once the ring
// is full; readers get a newest-first copy. All methods are safe for
// concurrent use.
type SlowLog struct {
	threshold atomic.Int64 // ns; entries below it are dropped

	mu   sync.Mutex
	ring []SlowEntry
	next int // ring index of the next write
	n    int // filled entries, <= len(ring)
}

// SlowStages is the per-stage breakdown of one logged request.
type SlowStages struct {
	ParseNs     int64 `json:"parse_ns"`
	SketchNs    int64 `json:"sketch_ns"`
	ExpandNs    int64 `json:"expand_ns"`
	ExtractNs   int64 `json:"extract_ns"`
	SerializeNs int64 `json:"serialize_ns"`
}

// SlowEntry is one slow-query log record. Trace links to the request's
// stored span tree (/debug/traces/{id}): a slow entry always clears the
// tracer's tail-sampling bar, so the link resolves while the trace is
// still in the ring.
type SlowEntry struct {
	TraceID    string     `json:"trace_id"`
	Trace      string     `json:"trace,omitempty"`
	Endpoint   string     `json:"endpoint"`
	Status     int        `json:"status"`
	UnixMs     int64      `json:"unix_ms"`
	DurationNs int64      `json:"duration_ns"`
	Stages     SlowStages `json:"stages"`
	// Query identity and engine counters; meaningful when HasQuery.
	HasQuery     bool  `json:"has_query"`
	U            int64 `json:"u"`
	V            int64 `json:"v"`
	Dist         int32 `json:"dist"`
	ArcsScanned  int64 `json:"arcs_scanned"`
	LabelEntries int64 `json:"label_entries"`
}

// NewSlowLog creates a ring holding up to capacity entries, recording
// requests that took at least threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	l := &SlowLog{ring: make([]SlowEntry, capacity)}
	l.threshold.Store(int64(threshold))
	return l
}

// Threshold returns the current recording threshold.
func (l *SlowLog) Threshold() time.Duration { return time.Duration(l.threshold.Load()) }

// SetThreshold updates the recording threshold.
func (l *SlowLog) SetThreshold(d time.Duration) { l.threshold.Store(int64(d)) }

// Cap returns the ring capacity.
func (l *SlowLog) Cap() int { return len(l.ring) }

// Record logs e if it meets the threshold.
func (l *SlowLog) Record(e SlowEntry) {
	if e.DurationNs < l.threshold.Load() {
		return
	}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
	}
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// Fill is a convenience that builds an entry from a finished request
// trace and records it.
func (l *SlowLog) Fill(tr *Trace, endpoint string, status int, dur time.Duration, now time.Time) {
	if tr == nil || int64(dur) < l.threshold.Load() {
		return
	}
	l.Record(SlowEntry{
		TraceID:    tr.ID,
		Trace:      "/debug/traces/" + tr.ID,
		Endpoint:   endpoint,
		Status:     status,
		UnixMs:     now.UnixMilli(),
		DurationNs: int64(dur),
		Stages: SlowStages{
			ParseNs:     tr.StageNs[StageParse],
			SketchNs:    tr.StageNs[StageSketch],
			ExpandNs:    tr.StageNs[StageExpand],
			ExtractNs:   tr.StageNs[StageExtract],
			SerializeNs: tr.StageNs[StageSerialize],
		},
		HasQuery:     tr.HasQuery,
		U:            tr.U,
		V:            tr.V,
		Dist:         tr.Dist,
		ArcsScanned:  tr.ArcsScanned,
		LabelEntries: tr.LabelEntries,
	})
}

// Entries returns the logged entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += len(l.ring)
		}
		out = append(out, l.ring[idx])
	}
	return out
}

// Len returns the number of logged entries.
func (l *SlowLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}
