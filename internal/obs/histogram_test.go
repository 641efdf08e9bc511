package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sampleQuantile is the oracle: the rank-⌈q·n⌉ element of the sorted
// sample, matching Histogram.Quantile's rank definition.
func sampleQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(float64(n)*q + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<62 + 12345, 1<<63 - 1}
	for _, v := range vals {
		idx := bucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		hi := bucketMax(idx)
		if v > hi {
			t.Errorf("value %d above its bucket max %d (idx %d)", v, hi, idx)
		}
		if idx > 0 {
			lo := bucketMax(idx-1) + 1
			if v < lo {
				t.Errorf("value %d below its bucket min %d (idx %d)", v, lo, idx)
			}
		}
	}
	// Bucket bounds must be monotone.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		m := bucketMax(i)
		if m <= prev {
			t.Fatalf("bucketMax not monotone at %d: %d <= %d", i, m, prev)
		}
		prev = m
	}
}

// TestQuantileWithinBucketError checks estimates against a sorted-sample
// oracle: the estimate must be >= the oracle and within one bucket's
// relative width (33/32) above it.
func TestQuantileWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"lognormal": func() int64 { return int64(1000 * (1 + rng.ExpFloat64()*50)) },
		"small":     func() int64 { return rng.Int63n(50) },
	}
	for name, gen := range dists {
		h := NewHistogram()
		samples := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := gen()
			samples = append(samples, v)
			h.ObserveNs(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
			oracle := sampleQuantile(samples, q)
			est := h.Quantile(q)
			if est < oracle {
				t.Errorf("%s q=%v: estimate %d below oracle %d", name, q, est, oracle)
			}
			bound := oracle + oracle/32 + 1
			if est > bound {
				t.Errorf("%s q=%v: estimate %d beyond error bound %d (oracle %d)", name, q, est, bound, oracle)
			}
		}
		if h.Max() != samples[len(samples)-1] {
			t.Errorf("%s: max %d != sample max %d", name, h.Max(), samples[len(samples)-1])
		}
		if h.Count() != uint64(len(samples)) {
			t.Errorf("%s: count %d != %d", name, h.Count(), len(samples))
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this is the lock-free safety check.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.ObserveNs(rng.Int63n(1 << 40))
				if i%256 == 0 {
					_ = h.Quantile(0.99)
					_ = h.Max()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perW {
		t.Fatalf("count %d != %d", got, workers*perW)
	}
}

func TestObserveNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.ObserveNs(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative observation not clamped: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestQuantileMonotone is the property test: for any sample, Quantile
// must be non-decreasing in q.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Mix exact-range values, heavy tail and zeros.
			switch rng.Intn(3) {
			case 0:
				h.ObserveNs(int64(rng.Intn(64)))
			case 1:
				h.ObserveNs(rng.Int63n(1 << 40))
			default:
				h.ObserveNs(0)
			}
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: Quantile(%.2f) = %d < Quantile(prev) = %d", trial, q, v, prev)
			}
			prev = v
		}
		if h.Quantile(1) != h.Max() {
			t.Fatalf("trial %d: Quantile(1) = %d, Max = %d", trial, h.Quantile(1), h.Max())
		}
	}
}

// TestEmptyHistogramReadsZero pins down the empty-histogram contract:
// every reading is zero, no garbage values.
func TestEmptyHistogramReadsZero(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: count %d, sum %d, max %d", h.Count(), h.Sum(), h.Max())
	}
	if h.Quantile(0.5) != 0 || h.Quantile(0) != 0 || h.Quantile(1) != 0 {
		t.Fatal("empty quantiles must be 0")
	}
}
