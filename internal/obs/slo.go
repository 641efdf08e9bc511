package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SLO engine: declarative per-endpoint objectives scored over sliding
// windows. An objective says what fraction of requests must be good
// (answered without a 5xx, and under a latency threshold when one is
// set); the engine keeps good/total counts in 10-second epoch-stamped
// buckets covering six hours and reports the burn rate per window —
// the ratio of the observed bad fraction to the error budget
// (1 - target). Burn rate 1.0 spends the budget exactly at the
// objective's horizon; the Google SRE fast-burn threshold (14.4 over
// 5m) flags an incident eating a 30-day budget in under two days.
//
// Recording is wait-free and allocation-free: one epoch check plus two
// atomic adds, so the warm query path can feed its SLO directly.

const (
	sloBucketNs  = int64(10 * time.Second)
	sloBucketCnt = 2160 // 6h of 10s buckets

	// FastBurnThreshold is the 5m burn rate that flags an incident.
	FastBurnThreshold = 14.4
	// fastBurnMinTotal avoids flagging a fast burn off a handful of
	// requests: a single failed probe is not an incident.
	fastBurnMinTotal = 8
)

// SLOWindows are the reporting windows, shortest first.
var SLOWindows = []struct {
	Name string
	D    time.Duration
}{
	{"5m", 5 * time.Minute},
	{"30m", 30 * time.Minute},
	{"1h", time.Hour},
	{"6h", 6 * time.Hour},
}

type sloBucket struct {
	epoch atomic.Int64
	good  atomic.Uint64
	total atomic.Uint64
}

// SLO is one objective over one endpoint. Fields are read-only after
// construction; counts are internal.
type SLO struct {
	Name      string  // series label, e.g. "read-availability"
	Endpoint  string  // endpoint name it scores, e.g. "spg"
	Target    float64 // good fraction objective, e.g. 0.999
	LatencyNs int64   // a good request must also finish within this; 0 = availability only

	buckets [sloBucketCnt]sloBucket
}

// NewSLO declares an objective. Target is clamped into (0, 1).
func NewSLO(name, endpoint string, target float64, latency time.Duration) *SLO {
	if target <= 0 || target >= 1 {
		target = 0.999
	}
	return &SLO{Name: name, Endpoint: endpoint, Target: target, LatencyNs: int64(latency)}
}

// Record scores one request: status below 500 and (when a latency
// threshold is set) duration at or under it counts as good.
//
//qbs:zeroalloc
func (s *SLO) Record(durNs int64, status int) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	e := now / sloBucketNs
	b := &s.buckets[uint64(e)%sloBucketCnt]
	if old := b.epoch.Load(); old != e {
		if b.epoch.CompareAndSwap(old, e) {
			b.good.Store(0)
			b.total.Store(0)
		}
	}
	b.total.Add(1)
	if status < 500 && (s.LatencyNs <= 0 || durNs <= s.LatencyNs) {
		b.good.Add(1)
	}
}

// Window sums good/total over the trailing window d.
func (s *SLO) Window(d time.Duration) (good, total uint64) {
	now := time.Now().UnixNano()
	e := now / sloBucketNs
	k := int(int64(d) / sloBucketNs)
	if k < 1 {
		k = 1
	}
	if k > sloBucketCnt {
		k = sloBucketCnt
	}
	for i := 0; i < k; i++ {
		b := &s.buckets[uint64(e-int64(i))%sloBucketCnt]
		if b.epoch.Load() != e-int64(i) {
			continue
		}
		good += b.good.Load()
		total += b.total.Load()
	}
	return good, total
}

// BurnRate returns the budget burn rate over the trailing window d:
// bad fraction divided by the error budget. 0 when the window is
// empty.
func (s *SLO) BurnRate(d time.Duration) float64 {
	good, total := s.Window(d)
	if total == 0 {
		return 0
	}
	bad := float64(total-good) / float64(total)
	return bad / (1 - s.Target)
}

// FastBurn reports whether the 5m burn rate crosses the incident
// threshold (with a minimum sample count so one failed probe does not
// page).
func (s *SLO) FastBurn() bool {
	if s == nil {
		return false
	}
	good, total := s.Window(5 * time.Minute)
	if total < fastBurnMinTotal {
		return false
	}
	bad := float64(total-good) / float64(total)
	return bad/(1-s.Target) >= FastBurnThreshold
}

// SLOWindowView is one window's score in the /debug/slo report.
type SLOWindowView struct {
	Good     uint64  `json:"good"`
	Total    uint64  `json:"total"`
	BurnRate float64 `json:"burn_rate"`
}

// SLOView is one objective's /debug/slo entry.
type SLOView struct {
	Name      string                   `json:"name"`
	Endpoint  string                   `json:"endpoint"`
	Target    float64                  `json:"target"`
	LatencyMs float64                  `json:"latency_ms,omitempty"`
	FastBurn  bool                     `json:"fast_burn"`
	Windows   map[string]SLOWindowView `json:"windows"`
}

// View renders the objective's current scores.
func (s *SLO) View() SLOView {
	v := SLOView{
		Name:      s.Name,
		Endpoint:  s.Endpoint,
		Target:    s.Target,
		LatencyMs: float64(s.LatencyNs) / 1e6,
		FastBurn:  s.FastBurn(),
		Windows:   make(map[string]SLOWindowView, len(SLOWindows)),
	}
	for _, w := range SLOWindows {
		good, total := s.Window(w.D)
		var burn float64
		if total > 0 {
			burn = (float64(total-good) / float64(total)) / (1 - s.Target)
		}
		v.Windows[w.Name] = SLOWindowView{Good: good, Total: total, BurnRate: burn}
	}
	return v
}

// SLOSet is the objectives of one tier, indexed by endpoint, exported
// as qbs_slo_burn_rate{slo,window} gauges.
type SLOSet struct {
	mu         sync.Mutex
	slos       []*SLO
	byEndpoint map[string]*SLO
	reg        *Registry
}

// NewSLOSet creates an empty set exporting burn-rate gauges on reg
// (nil disables the gauges).
func NewSLOSet(reg *Registry) *SLOSet {
	return &SLOSet{byEndpoint: make(map[string]*SLO), reg: reg}
}

// Add registers one objective and its burn-rate gauges. The last
// objective added for an endpoint wins the endpoint index.
func (ss *SLOSet) Add(s *SLO) *SLO {
	ss.mu.Lock()
	ss.slos = append(ss.slos, s)
	ss.byEndpoint[s.Endpoint] = s
	ss.mu.Unlock()
	if ss.reg != nil {
		for _, w := range SLOWindows {
			d := w.D
			ss.reg.GaugeFunc("qbs_slo_burn_rate",
				`slo="`+EscapeLabel(s.Name)+`",window="`+w.Name+`"`,
				func() float64 { return s.BurnRate(d) })
		}
	}
	return s
}

// ForEndpoint returns the objective scoring endpoint, or nil.
func (ss *SLOSet) ForEndpoint(endpoint string) *SLO {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.byEndpoint[endpoint]
}

// All returns the registered objectives in registration order.
func (ss *SLOSet) All() []*SLO {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]*SLO(nil), ss.slos...)
}

// FastBurn reports whether any objective is fast-burning — the flight
// recorder's auto-capture trigger.
func (ss *SLOSet) FastBurn() bool {
	for _, s := range ss.All() {
		if s.FastBurn() {
			return true
		}
	}
	return false
}
