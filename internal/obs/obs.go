package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series: a family name plus an optional,
// pre-rendered label set (`key="value",key2="value2"` without braces).
type metric struct {
	family string
	labels string
	kind   metricKind
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

func (m *metric) key() string { return m.family + "{" + m.labels + "}" }

// Registry is an ordered collection of named metrics. Get-or-create
// accessors make registration idempotent; hold the returned pointer on
// hot paths instead of re-looking it up. A process-wide Default registry
// collects cross-layer metrics (engine, WAL, runtime); servers keep
// their own registries for per-endpoint series so tests and multi-server
// processes stay isolated, and render both on scrape.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Default is the process-wide registry.
var Default = NewRegistry()

func (r *Registry) lookup(family, labels string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := family + "{" + labels + "}"
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic("obs: metric " + key + " re-registered with a different type")
		}
		return m
	}
	m := &metric{family: family, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = NewHistogram()
	}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under family{labels}, creating
// it on first use. labels is a pre-rendered label list without braces
// (e.g. `endpoint="/spg"`), or "" for none.
func (r *Registry) Counter(family, labels string) *Counter {
	return r.lookup(family, labels, kindCounter).c
}

// Gauge returns the gauge registered under family{labels}.
func (r *Registry) Gauge(family, labels string) *Gauge {
	return r.lookup(family, labels, kindGauge).g
}

// Histogram returns the histogram registered under family{labels}.
func (r *Registry) Histogram(family, labels string) *Histogram {
	return r.lookup(family, labels, kindHistogram).h
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time. Re-registering the same series replaces the callback.
func (r *Registry) GaugeFunc(family, labels string, fn func() float64) {
	m := r.lookup(family, labels, kindGaugeFunc)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// snapshot copies the registration order under the lock.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.order))
	copy(out, r.order)
	return out
}
