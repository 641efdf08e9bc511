package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-bucketed latency histogram. Values (nanoseconds, or any
// non-negative int64) land in buckets with 32 sub-buckets per power of
// two, so a quantile estimate is off by at most a factor of 33/32
// (~3.1%) — and exact below 64. Every operation is a handful of atomic
// adds: recording is lock-free, wait-free, allocation-free, and safe
// under the race detector.

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Buckets 0..63 hold values 0..63 exactly; each later group of 32
	// covers one octave up to 2^63-1.
	histBuckets = (64 - histSubBits) * histSub
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSub*2 {
		return int(v)
	}
	top := bits.Len64(uint64(v)) - 1
	return (top-histSubBits)*histSub + int(v>>(top-histSubBits))
}

// bucketMax returns the largest value mapping to bucket idx.
func bucketMax(idx int) int64 {
	if idx < histSub*2 {
		return int64(idx)
	}
	o := idx/histSub - 1
	m := int64(idx - o*histSub)
	return (m+1)<<o - 1
}

// Histogram records a distribution of non-negative int64 values.
// The zero value is NOT ready; use NewHistogram (or Registry.Histogram).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNs(int64(d)) }

// ObserveNs records one value; negative values clamp to zero.
//
//qbs:zeroalloc
func (h *Histogram) ObserveNs(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// values. The estimate is the upper bound of the bucket holding the
// rank-⌈q·count⌉ value, clamped to the observed max, so it is within a
// factor of 33/32 above the exact sample quantile. Returns 0 when
// empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := bucketMax(i)
			if mx := h.max.Load(); mx < v {
				v = mx
			}
			return v
		}
	}
	return h.max.Load()
}
