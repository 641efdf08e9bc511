package obs

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestRingMatchesSliceModel drives a ring and a plain slice of everything
// ever added through the same random adds, and after each step compares
// every reading of the ring with the model's last len(slots) values:
// newest-first order, the predicate applied before the limit, find and
// replace.
func TestRingMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{0, 1, 2, 7, 64} {
		r := newRing[int](capacity)
		size := max(capacity, 1)
		var model []*int
		for step := 0; step < 4*size+10; step++ {
			v := rng.Intn(50)
			r.add(&v)
			model = append(model, &v)
			live := slices.Clone(model[max(0, len(model)-size):])
			slices.Reverse(live) // newest first

			even := func(p *int) bool { return *p%2 == 0 }
			for _, limit := range []int{0, -1, 1, 3, size, size + 5} {
				for _, keep := range []func(*int) bool{nil, even} {
					var want []*int
					for _, p := range live {
						if (keep == nil || keep(p)) && (limit <= 0 || len(want) < limit) {
							want = append(want, p)
						}
					}
					if got := r.recent(limit, keep); !slices.Equal(got, want) {
						t.Fatalf("cap %d step %d: recent(%d, keep=%v) = %v, want %v", capacity, step, limit, keep != nil, deref(got), deref(want))
					}
				}
			}

			probe := rng.Intn(50)
			is := func(p *int) bool { return *p == probe }
			got := r.find(is)
			if held := slices.ContainsFunc(live, is); (got != nil) != held || (got != nil && *got != probe) {
				t.Fatalf("cap %d step %d: find(%d) = %v, ring holds one: %v", capacity, step, probe, got, held)
			}
			swapped := r.replace(is, func(old *int) *int { n := *old + 100; return &n })
			if swapped != (got != nil) {
				t.Fatalf("cap %d step %d: replace(%d) = %v with find = %v", capacity, step, probe, swapped, got)
			}
			if swapped {
				// Mirror it: one of the live probes is now probe+100, in place.
				now := r.recent(0, nil)
				diff := 0
				for i, p := range now {
					if p != live[i] {
						diff++
						if *live[i] != probe || *p != probe+100 {
							t.Fatalf("cap %d step %d: replace turned %d into %d", capacity, step, *live[i], *p)
						}
						model[len(model)-1-i] = p
					}
				}
				if diff != 1 {
					t.Fatalf("cap %d step %d: replace changed %d slots", capacity, step, diff)
				}
			}
		}
	}
}

func deref(ps []*int) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}

// TestRingConcurrentAddDuringWalk: writers overwrite the ring while
// readers walk it (run under -race). Every value a reader sees is whole,
// and a walk never returns more than the ring holds.
func TestRingConcurrentAddDuringWalk(t *testing.T) {
	type pair struct{ a, b int }
	r := newRing[pair](8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.add(&pair{w*10000 + i, -(w*10000 + i)})
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				got := r.recent(0, func(p *pair) bool { return p.a%2 == 0 })
				if len(got) > 8 {
					t.Errorf("walk returned %d values from a ring of 8", len(got))
				}
				for _, p := range got {
					if p.a != -p.b || p.a%2 != 0 {
						t.Errorf("torn or unfiltered value %+v", *p)
					}
				}
				r.find(func(p *pair) bool { return p.a == i })
			}
		}()
	}
	wg.Wait()
	if got := r.recent(0, nil); len(got) != 8 {
		t.Fatalf("ring holds %d after 8000 adds, want 8", len(got))
	}
}
