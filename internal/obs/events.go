package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Structured event journal: the "what happened" half of observability.
// Components declare their events once (EventDef), then emit leveled,
// trace-correlated records with up to maxSpanAttrs typed attributes
// into the bounded ring. Two properties keep it safe to wire into
// failure loops:
//
//   - each (component, event) pair carries its own GCRA token bucket,
//     so a wedged component retrying in a tight loop cannot flush the
//     journal or melt a log pipeline — suppressed emits are counted
//     and surfaced on the next admitted record, and the suppressed
//     path is allocation-free: Emit's variadic attr slice never
//     escapes;
//   - every admitted event bumps a qbs_events_total{component,level}
//     counter, so the journal's shape is visible in /metrics even
//     after the ring has wrapped.

// Level orders event severities.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "unknown"
}

// ParseLevel maps a level name to its Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return 0, false
}

// Event is one admitted journal record. It is immutable after emit:
// readers get the pointer, never a lock.
type Event struct {
	Component  string
	Event      string
	Level      Level
	UnixNs     int64
	TraceID    string
	Suppressed uint64 // rate-limited emits of this def since the previous admitted one
	nattrs     uint8
	attrs      [maxSpanAttrs]Attr
}

// EventView is the JSON-ready form served at /debug/logs.
type EventView struct {
	Component  string         `json:"component"`
	Event      string         `json:"event"`
	Level      string         `json:"level"`
	UnixNs     int64          `json:"unix_ns"`
	TraceID    string         `json:"trace_id,omitempty"`
	Suppressed uint64         `json:"suppressed,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// View renders the event for JSON serving.
func (e *Event) View() EventView {
	return EventView{
		Component:  e.Component,
		Event:      e.Event,
		Level:      e.Level.String(),
		UnixNs:     e.UnixNs,
		TraceID:    e.TraceID,
		Suppressed: e.Suppressed,
		Attrs:      attrMap(e.attrs[:e.nattrs]),
	}
}

// Str builds a string attribute. The key must be a static string; an
// admitted event keeps a copy of the value.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val, IsInt: true} }

// Rate-limit defaults: an event that fires more than defaultEventRate
// times per second sustained is being retried in a loop, not reporting
// news. The burst lets a genuine incident land its first records
// un-throttled.
const (
	defaultEventRate  = 50 // admitted events/second per (component, event)
	defaultEventBurst = 50
)

// Journal is a bounded ring of events plus the def table feeding it.
// The zero value is not ready; use NewJournal.
type Journal struct {
	ring *ring[Event]
	reg  *Registry

	mu   sync.Mutex
	defs map[string]*EventDef
}

// NewJournal creates a journal retaining up to capacity events, with
// qbs_events_total counters registered on reg (nil disables counters).
func NewJournal(capacity int, reg *Registry) *Journal {
	return &Journal{
		ring: newRing[Event](capacity),
		reg:  reg,
		defs: make(map[string]*EventDef),
	}
}

// DefaultJournal collects process-wide events: store and engine
// background paths (WAL, checkpoints, compaction) and command
// lifecycle. Tiers hosted in one process (tests) use their own
// journals so records stay attributable.
var DefaultJournal = NewJournal(1024, Default)

// Def declares (or returns the existing) event definition for one
// (component, event) pair at the given level, with the default rate
// limit. Hold the returned pointer; Def takes a lock.
func (j *Journal) Def(component, event string, level Level) *EventDef {
	return j.DefRate(component, event, level, defaultEventRate, defaultEventBurst)
}

// DefRate is Def with an explicit token-bucket rate: up to burst
// events immediately, perSec sustained. perSec <= 0 disables limiting.
func (j *Journal) DefRate(component, event string, level Level, perSec, burst int) *EventDef {
	j.mu.Lock()
	defer j.mu.Unlock()
	key := component + "\x00" + event
	if d, ok := j.defs[key]; ok {
		return d
	}
	d := &EventDef{j: j, Component: component, Event: event, level: level}
	if perSec > 0 {
		if burst < 1 {
			burst = 1
		}
		d.periodNs = int64(time.Second) / int64(perSec)
		d.limitNs = int64(burst) * d.periodNs
	}
	if j.reg != nil {
		d.counter = j.reg.Counter("qbs_events_total",
			`component="`+EscapeLabel(component)+`",level="`+level.String()+`"`)
	}
	j.defs[key] = d
	return d
}

// Recent returns up to limit events, newest first, filtered to those
// at or above minLevel and (when component != "") to one component.
func (j *Journal) Recent(limit int, minLevel Level, component string) []*Event {
	if j == nil {
		return nil
	}
	return j.ring.recent(limit, func(ev *Event) bool {
		return ev.Level >= minLevel && (component == "" || ev.Component == component)
	})
}

// EventDef is one declared (component, event) pair. Emit is safe for
// concurrent use; the def is the handle components hold, so the hot
// path never touches the journal's def table.
type EventDef struct {
	j         *Journal
	Component string
	Event     string
	level     Level
	counter   *Counter

	// GCRA token bucket: tat is the theoretical arrival time (virtual
	// clock, unix ns). An emit is admitted while the virtual clock has
	// not run more than limitNs ahead of real time.
	tat        atomic.Int64
	periodNs   int64 // ns between admitted events at the sustained rate; 0 = unlimited
	limitNs    int64 // burst allowance in ns
	suppressed atomic.Uint64
}

// Level returns the def's severity.
func (d *EventDef) Level() Level { return d.level }

// admit runs the token bucket; returns false when rate-limited.
func (d *EventDef) admit(nowNs int64) bool {
	if d.periodNs == 0 {
		return true
	}
	for {
		tat := d.tat.Load()
		newTat := tat
		if newTat < nowNs {
			newTat = nowNs
		}
		newTat += d.periodNs
		if newTat-nowNs > d.limitNs {
			return false
		}
		if d.tat.CompareAndSwap(tat, newTat) {
			return true
		}
	}
}

// Emit records one event with up to maxSpanAttrs attributes. A
// rate-limited emit is a constant-time, allocation-free no-op: the
// variadic attr slice never escapes, so the call site's backing array
// stays on the stack.
func (d *EventDef) Emit(attrs ...Attr) {
	d.emit("", attrs)
}

// EmitTrace is Emit with a correlating trace ID (the request's
// X-Qbs-Trace-Id), so /debug/logs lines join /debug/traces trees. An
// admitted event keeps a copy of the ID.
func (d *EventDef) EmitTrace(traceID string, attrs ...Attr) {
	d.emit(traceID, attrs)
}

func (d *EventDef) emit(traceID string, attrs []Attr) {
	if d == nil {
		return
	}
	j := d.j
	if j == nil {
		return
	}
	now := time.Now().UnixNano()
	if !d.admit(now) {
		d.suppressed.Add(1)
		return
	}
	ev := &Event{
		Component:  d.Component,
		Event:      d.Event,
		Level:      d.level,
		UnixNs:     now,
		TraceID:    strings.Clone(traceID),
		Suppressed: d.suppressed.Swap(0),
	}
	n := len(attrs)
	if n > maxSpanAttrs {
		n = maxSpanAttrs
	}
	copy(ev.attrs[:n], attrs[:n])
	ownAttrs(ev.attrs[:n])
	ev.nattrs = uint8(n)
	if d.counter != nil {
		d.counter.Inc()
	}
	j.ring.add(ev)
}
