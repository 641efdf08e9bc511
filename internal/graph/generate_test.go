package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// referenceSample is the sampling under both Erdős–Rényi generators,
// written the obvious way: walk the seed's draw stream, drop self-loops,
// keep first occurrences in a map, stop at m distinct pairs.
func referenceSample(n, m int, seed int64, directed bool) []Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Edge]bool)
	var pairs []Edge
	for len(pairs) < m {
		p := Edge{V(rng.Intn(n)), V(rng.Intn(n))}
		if !directed {
			p = p.Normalize()
		}
		if p.U != p.W && !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// TestErdosRenyiMatchesFirstDistinctDraws holds both samplers to the
// map-based reference where repeats are many: complete graphs, where
// the top-up runs until the last missing pair is drawn, and a dense
// graph, where it shifts nearly every row. The dataset fingerprints see
// only a few hundred repeats in millions of draws.
func TestErdosRenyiMatchesFirstDistinctDraws(t *testing.T) {
	cases := []struct {
		n, m     int
		directed bool
	}{
		{2, 1, false}, {3, 3, false}, {60, 1770, false}, // K₂, K₃, K₆₀
		{300, 40000, false},
		{2000, 30000, false},
		{40, 1560, true}, // the complete digraph on 40 vertices
		{2000, 30000, true},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("n=%d,m=%d,directed=%v,seed=%d", c.n, c.m, c.directed, seed)
			ref := referenceSample(c.n, c.m, seed, c.directed)
			if c.directed {
				want, err := referenceDiBuild(&Builder{n: c.n, edges: ref, directed: true})
				if err != nil {
					t.Fatal(err)
				}
				got := DirectedErdosRenyi(c.n, c.m, seed)
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) ||
					!slices.Equal(got.inOff, want.inOff) || !slices.Equal(got.in, want.in) {
					t.Fatalf("%s: CSR differs from the first %d distinct draws", name, c.m)
				}
				continue
			}
			want, err := referenceBuild(&Builder{n: c.n, edges: ref})
			if err != nil {
				t.Fatal(err)
			}
			got := ErdosRenyi(c.n, c.m, seed)
			if err := got.ValidateStructure(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) {
				t.Fatalf("%s: CSR differs from the first %d distinct draws", name, c.m)
			}
		}
	}
}

// TestErdosRenyiAllocatesPairsAndCSR bounds what a sampler allocates by
// its pending pairs (8 B each) plus the CSR arrays it returns, with
// 1 MB to spare: the repeats are found by the builder's squeeze and
// replaced in the capacity it freed, with no membership table beside.
func TestErdosRenyiAllocatesPairsAndCSR(t *testing.T) {
	const slack = 1 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	{
		const n, m = 30000, 810000
		limit := uint64(8*m + 4*2*m + 8*(n+1) + slack)
		if got := allocated(func() { ErdosRenyi(n, m, 1) }); got > limit {
			t.Errorf("ErdosRenyi(%d, %d) allocated %d B, want at most %d", n, m, got, limit)
		}
	}
	{
		const n, m = 20000, 400000
		limit := uint64(8*m + 2*(4*m+8*(n+1)) + slack)
		if got := allocated(func() { DirectedErdosRenyi(n, m, 7) }); got > limit {
			t.Errorf("DirectedErdosRenyi(%d, %d) allocated %d B, want at most %d", n, m, got, limit)
		}
	}
}
