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

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// csrBytes is the size of g's CSR arrays, adjacency at its capacity (an
// Erdős–Rényi sampler's keeps the slots its squeeze freed), and of its
// in-CSR when directed.
func csrBytes(g *Graph) uint64 {
	offsets, adj, inOff, in := g.CSR()
	b := 8*len(offsets) + 4*cap(adj)
	if g.Directed() {
		b += 8*len(inOff) + 4*cap(in)
	}
	return uint64(b)
}

// allocSlack covers a generator's scratch: the replayed stream's blocks
// (3 × 16 Ki pairs, 384 KiB), a top-up's keys, a hub list.
const allocSlack = 1 << 20

// TestErdosRenyiAllocatesItsCSR bounds what a sampler allocates by the
// CSR arrays it returns, with 1 MB to spare: its draws are replayed into
// the rows, never held as a pair list, and the repeats are found by the
// squeeze and replaced in the capacity it freed, with no membership
// table beside.
func TestErdosRenyiAllocatesItsCSR(t *testing.T) {
	for _, c := range []struct {
		directed bool
		n, m     int
		seed     int64
	}{{false, 30000, 810000, 1}, {true, 20000, 400000, 7}} {
		var g *Graph
		got := allocated(func() {
			if c.directed {
				g = DirectedErdosRenyi(c.n, c.m, c.seed)
			} else {
				g = ErdosRenyi(c.n, c.m, c.seed)
			}
		})
		// Two entries of 4 B per draw, and one or two offset arrays.
		csr := 8*uint64(c.m) + 8*uint64(c.n+1)
		if c.directed {
			csr += 8 * uint64(c.n+1)
		}
		if csrBytes(g) != csr {
			t.Errorf("directed=%v: CSR arrays of %d B, want %d", c.directed, csrBytes(g), csr)
		}
		if limit := csr + allocSlack; got > limit {
			t.Errorf("directed=%v: %d draws over %d vertices allocated %d B, want at most %d", c.directed, c.m, c.n, got, limit)
		}
	}
}

// TestPreferentialAttachmentAllocatesEdgesAndCSR bounds BarabasiAlbert
// and DirectedScaleFree by their pending edges (8 B each, at the
// capacity they reserve) and the CSR they return: the endpoints they
// sample from are read off the pending edges, not kept in a list of
// their own.
func TestPreferentialAttachmentAllocatesEdgesAndCSR(t *testing.T) {
	const n, m = 50000, 5
	var g *Graph
	got := allocated(func() { g = BarabasiAlbert(n, m, 1) })
	edges := uint64(8 * ((m+1)*m/2 + m*(n-m-1)))
	if limit := edges + csrBytes(g) + allocSlack; got > limit {
		t.Errorf("BarabasiAlbert(%d, %d) allocated %d B, want at most %d", n, m, got, limit)
	}
	got = allocated(func() { g = DirectedScaleFree(n, m, 1) })
	arcs := uint64(8 * (m + 1 + 2*m*(n-m-1)))
	if limit := arcs + csrBytes(g) + allocSlack; got > limit {
		t.Errorf("DirectedScaleFree(%d, %d) allocated %d B, want at most %d", n, m, got, limit)
	}
}

// TestMergesAllocateTheirCSR bounds Union, HubBoost and TriadicClosure
// by the CSR they return plus their new entries (two 8 B keys per new
// edge): each merges rows into the result, holding no pair list of the
// graphs it reads.
func TestMergesAllocateTheirCSR(t *testing.T) {
	const n = 30000
	a, b := BarabasiAlbert(n, 5, 1), ErdosRenyi(n, 400000, 2)
	da, db := DirectedScaleFree(n, 5, 1), DirectedErdosRenyi(n, 400000, 2)
	for _, c := range []struct {
		name  string
		added int // edges the pass draws
		pass  func() *Graph
	}{
		{"Union", 0, func() *Graph { return Union(a, b) }},
		{"Union/directed", 0, func() *Graph { return Union(da, db) }},
		{"HubBoost", 10 * 3000, func() *Graph { return HubBoost(b, 10, 3000, 3) }},
		{"HubBoost/directed", 10 * 3000, func() *Graph { return HubBoost(db, 10, 3000, 3) }},
		{"TriadicClosure", 10000, func() *Graph { return TriadicClosure(b, 10000, 3) }},
	} {
		var g *Graph
		got := allocated(func() { g = c.pass() })
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if limit := csrBytes(g) + uint64(16*c.added) + allocSlack; got > limit {
			t.Errorf("%s allocated %d B, want at most %d", c.name, got, limit)
		}
	}
}

// TestIntnIsMathRands holds the replayed stream's draw to math/rand's
// Intn, draw for draw, at bounds that take each of Int31n's paths: a
// power of two (masked), small and large bounds with rare and frequent
// rejections, and the largest int32.
func TestIntnIsMathRands(t *testing.T) {
	const draws = 1_000_000
	for _, n := range []int{2, 3, 1 << 16, 120000, 1<<31 - 1} {
		for _, seed := range []int64{1, 2, 20210104} {
			want := rand.New(rand.NewSource(seed))
			got := newIntn(rand.NewSource(seed), n)
			for i := 0; i < draws; i++ {
				if w, g := want.Intn(n), got.next(); int(g) != w {
					t.Fatalf("n=%d seed=%d: draw %d is %d, want %d", n, seed, i, g, w)
				}
			}
		}
	}
}
