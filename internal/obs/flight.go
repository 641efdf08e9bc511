package obs

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Continuous-profiling flight recorder: a background sampler that
// captures pprof profiles into the bounded in-memory ring, so the
// profile of an incident exists before anyone goes looking. Captures
// happen on a fixed cadence and — debounced — whenever a registered
// trigger fires (SLO fast burn, error-level event spike). Each capture
// takes goroutine, heap (with an allocation delta since the previous
// capture) and mutex profiles, plus a short CPU profile when no other
// CPU profile is running (pprof allows one per process; losing that
// race is expected when an operator is live-profiling, and is not an
// error).

// Profile is one captured pprof snapshot.
type Profile struct {
	ID      uint64
	Kind    string // "cpu", "heap", "goroutine", "mutex"
	Trigger string // "interval", "manual", or a trigger name
	UnixNs  int64
	Bytes   []byte
	// HeapDelta is the growth of cumulative allocation (bytes) since
	// the recorder's previous capture round; only set on heap profiles.
	HeapDelta int64
}

// ProfileInfo is the /debug/profiles list entry.
type ProfileInfo struct {
	ID        uint64 `json:"id"`
	Kind      string `json:"kind"`
	Trigger   string `json:"trigger"`
	UnixNs    int64  `json:"unix_ns"`
	SizeBytes int    `json:"size_bytes"`
	HeapDelta int64  `json:"heap_delta_bytes,omitempty"`
}

type flightTrigger struct {
	name string
	fn   func() bool
}

// FlightRecorder owns the profile ring and the sampling goroutine.
type FlightRecorder struct {
	seq  atomic.Uint64
	ring *ring[Profile]

	mu        sync.Mutex
	triggers  []flightTrigger
	lastAuto  time.Time
	prevAlloc uint64
	running   bool
	stop      chan struct{}
	wg        sync.WaitGroup

	// CPUDuration bounds each CPU capture (default 250ms). MinAutoGap
	// debounces trigger-driven captures (default 30s). Both must be set
	// before Start.
	CPUDuration time.Duration
	MinAutoGap  time.Duration
}

// NewFlightRecorder creates a recorder retaining up to capacity
// profiles.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return &FlightRecorder{
		ring:        newRing[Profile](max(capacity, 4)),
		CPUDuration: 250 * time.Millisecond,
		MinAutoGap:  30 * time.Second,
	}
}

// DefaultFlightRecorder is the process-wide recorder; qbs-server
// starts it when -profile-every is set.
var DefaultFlightRecorder = NewFlightRecorder(64)

// AddTrigger registers a named auto-capture condition, polled once a
// second while the recorder runs.
func (f *FlightRecorder) AddTrigger(name string, fn func() bool) {
	f.mu.Lock()
	f.triggers = append(f.triggers, flightTrigger{name, fn})
	f.mu.Unlock()
}

// Start launches the sampler: a capture round every interval, plus a
// one-second trigger poll. No-op if already running.
func (f *FlightRecorder) Start(interval time.Duration) {
	if interval <= 0 {
		return
	}
	f.mu.Lock()
	if f.running {
		f.mu.Unlock()
		return
	}
	f.running = true
	f.stop = make(chan struct{})
	f.mu.Unlock()
	f.wg.Add(1)
	go f.run(interval)
}

// Stop halts the sampler and waits for any in-flight capture.
func (f *FlightRecorder) Stop() {
	f.mu.Lock()
	if !f.running {
		f.mu.Unlock()
		return
	}
	f.running = false
	close(f.stop)
	f.mu.Unlock()
	f.wg.Wait()
}

func (f *FlightRecorder) run(interval time.Duration) {
	defer f.wg.Done()
	capTick := time.NewTicker(interval)
	trigTick := time.NewTicker(time.Second)
	defer capTick.Stop()
	defer trigTick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-capTick.C:
			f.CaptureNow("interval")
		case <-trigTick.C:
			f.pollTriggers()
		}
	}
}

func (f *FlightRecorder) pollTriggers() {
	f.mu.Lock()
	triggers := append([]flightTrigger(nil), f.triggers...)
	last := f.lastAuto
	gap := f.MinAutoGap
	f.mu.Unlock()
	if time.Since(last) < gap {
		return
	}
	for _, t := range triggers {
		if t.fn() {
			f.mu.Lock()
			f.lastAuto = time.Now()
			f.mu.Unlock()
			f.CaptureNow(t.name)
			return
		}
	}
}

// CaptureNow runs one capture round attributed to trigger and returns
// the captured profiles' list entries.
func (f *FlightRecorder) CaptureNow(trigger string) []ProfileInfo {
	if f == nil {
		return nil
	}
	now := time.Now().UnixNano()
	var out []ProfileInfo

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f.mu.Lock()
	var heapDelta int64
	if f.prevAlloc > 0 {
		heapDelta = int64(ms.TotalAlloc - f.prevAlloc)
	}
	f.prevAlloc = ms.TotalAlloc
	f.mu.Unlock()

	for _, kind := range []string{"goroutine", "heap", "mutex"} {
		p := pprof.Lookup(kind)
		if p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			continue
		}
		prof := &Profile{Kind: kind, Trigger: trigger, UnixNs: now, Bytes: buf.Bytes()}
		if kind == "heap" {
			prof.HeapDelta = heapDelta
		}
		out = append(out, f.store(prof))
	}

	// CPU last: it blocks for CPUDuration, and may be unavailable when
	// an operator's /debug/pprof/profile request holds the profiler.
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err == nil {
		time.Sleep(f.CPUDuration)
		pprof.StopCPUProfile()
		out = append(out, f.store(&Profile{Kind: "cpu", Trigger: trigger, UnixNs: now, Bytes: cpu.Bytes()}))
	}
	return out
}

func (f *FlightRecorder) store(p *Profile) ProfileInfo {
	p.ID = f.seq.Add(1)
	f.ring.add(p)
	return p.Info()
}

// Info renders the list entry for one profile.
func (p *Profile) Info() ProfileInfo {
	return ProfileInfo{
		ID:        p.ID,
		Kind:      p.Kind,
		Trigger:   p.Trigger,
		UnixNs:    p.UnixNs,
		SizeBytes: len(p.Bytes),
		HeapDelta: p.HeapDelta,
	}
}

// Profiles lists retained profiles, newest first.
func (f *FlightRecorder) Profiles() []ProfileInfo {
	if f == nil {
		return nil
	}
	retained := f.ring.recent(0, nil)
	out := make([]ProfileInfo, len(retained))
	for i, p := range retained {
		out[i] = p.Info()
	}
	return out
}

// Get returns the retained profile with the given ID, or nil.
func (f *FlightRecorder) Get(id uint64) *Profile {
	if f == nil {
		return nil
	}
	return f.ring.find(func(p *Profile) bool { return p.ID == id })
}
