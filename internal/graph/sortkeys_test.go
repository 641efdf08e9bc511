package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortKeysMatchesSort holds SortKeys to slices.Sort on both sides of
// its radix rule: few keys and many, keys that differ in one byte or in
// all eight, packed pairs of small and of spread ids with duplicates,
// and (vertex, payload) keys sorted from byte 4 up, whose vertex halves
// are distinct. The scratch buffer is handed from one sort to the next,
// and a warm buffer makes no allocation.
func TestSortKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	gens := map[string]func(n int) []uint64{
		"pairs-spread": func(n int) []uint64 {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = packPair(V(rng.Intn(120000)), V(rng.Intn(120000)))
			}
			for i := 0; i < n/3; i++ { // duplicates, as a kernel finds edges twice
				ks[rng.Intn(n)] = ks[rng.Intn(n)]
			}
			return ks
		},
		"pairs-small": func(n int) []uint64 {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = packPair(V(rng.Intn(n/8+1)), V(rng.Intn(n/8+1)))
			}
			return ks
		},
		"one-byte": func(n int) []uint64 {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = 0xabcd<<40 | uint64(rng.Intn(256))<<16
			}
			return ks
		},
		"all-bytes": func(n int) []uint64 {
			ks := make([]uint64, n)
			for i := range ks {
				ks[i] = rng.Uint64()
			}
			return ks
		},
		"equal": func(n int) []uint64 { return make([]uint64, n) },
	}
	var buf []uint64
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 47, 48, 63, 64, 100, 500, 512, 3000, 5000} {
			keys := gen(n)
			want := slices.Clone(keys)
			slices.Sort(want)
			buf = SortKeys(keys, 0, buf)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s n=%d: SortKeys differs from slices.Sort", name, n)
			}
		}
	}
	for _, n := range []int{10, 64, 200, 4000} {
		perm := rng.Perm(1 << 20)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(uint32(perm[i])^1<<31)<<32 | uint64(i)
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		buf = SortKeys(keys, 4, buf)
		if !slices.Equal(keys, want) {
			t.Fatalf("ids n=%d: SortKeys from byte 4 differs from slices.Sort", n)
		}
	}
	keys := gens["pairs-spread"](4000)
	work := slices.Clone(keys)
	buf = SortKeys(work, 0, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work, keys)
		buf = SortKeys(work, 0, buf)
	}); allocs != 0 {
		t.Fatalf("SortKeys with a warm buffer allocates %v", allocs)
	}
}

// BenchmarkSortKeys is SortKeys beside slices.Sort on packed pairs of
// ids spread over 120 000 vertices, the keys of an answer's canonical
// sort, at answer sizes around the radix rule's crossover.
func BenchmarkSortKeys(b *testing.B) {
	for _, n := range []int{100, 440, 1000, 4000} {
		rng := rand.New(rand.NewSource(1))
		src := make([]uint64, n)
		for i := range src {
			src[i] = packPair(V(rng.Intn(120000)), V(rng.Intn(120000)))
		}
		keys := make([]uint64, n)
		var buf []uint64
		for _, sorter := range []string{"SortKeys", "slices.Sort"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, sorter), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(keys, src)
					if sorter == "SortKeys" {
						buf = SortKeys(keys, 0, buf)
					} else {
						slices.Sort(keys)
					}
				}
			})
		}
	}
}
