package obs

import "sync/atomic"

// ring is the one bounded buffer behind everything this package retains
// — span store, slow-query view, journal. An atomic
// cursor claims a slot and an atomic pointer store publishes the value,
// which is immutable from then on: writers never block, and a reader
// sees a whole value or none. Once full, the oldest value is overwritten.
type ring[T any] struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[T]
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{slots: make([]atomic.Pointer[T], max(capacity, 1))}
}

func (r *ring[T]) add(v *T) {
	r.slots[(r.pos.Add(1)-1)%uint64(len(r.slots))].Store(v)
}

// recent returns up to limit retained values (limit <= 0: all of them),
// newest first, skipping those keep rejects (nil keep: none).
func (r *ring[T]) recent(limit int, keep func(*T) bool) []*T {
	n := len(r.slots)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]*T, 0, limit)
	pos := r.pos.Load()
	for k := 0; k < n && len(out) < limit; k++ {
		v := r.slots[(pos+uint64(n-1-k))%uint64(n)].Load()
		if v != nil && (keep == nil || keep(v)) {
			out = append(out, v)
		}
	}
	return out
}

// find returns a retained value match accepts, or nil.
func (r *ring[T]) find(match func(*T) bool) *T {
	for i := range r.slots {
		if v := r.slots[i].Load(); v != nil && match(v) {
			return v
		}
	}
	return nil
}

// replace swaps a retained value match accepts for with(value), in its
// slot. It reports false when there is none, or when a concurrent
// writer got to every such slot first.
func (r *ring[T]) replace(match func(*T) bool, with func(*T) *T) bool {
	for i := range r.slots {
		if old := r.slots[i].Load(); old != nil && match(old) && r.slots[i].CompareAndSwap(old, with(old)) {
			return true
		}
	}
	return false
}
