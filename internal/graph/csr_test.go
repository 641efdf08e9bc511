package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// referenceBuild is Builder.Build as it was before buildCSR: copy the
// pending edges, sort all of them, dedup, scatter, sort each list. It is
// kept as the oracle the linear-time constructor is compared against.
func referenceBuild(b *Builder) (*Graph, error) {
	for _, e := range b.edges {
		if e.U < 0 || int(e.W) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.W, b.n)
		}
	}
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].W < edges[j].W
	})
	edges = dedupEdges(edges)

	deg := make([]int64, b.n+1)
	for _, e := range edges {
		deg[e.U+1]++
		deg[e.W+1]++
	}
	offsets := make([]int64, b.n+1)
	for i := 1; i <= b.n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]V, offsets[b.n])
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range edges {
		adj[cursor[e.U]] = e.W
		cursor[e.U]++
		adj[cursor[e.W]] = e.U
		cursor[e.W]++
	}
	g := &Graph{offsets: offsets, adj: adj}
	// Input edges were sorted by (U,W); per-vertex lists of the U side are
	// emitted in order, but the W side may interleave, so sort each list.
	for v := 0; v < b.n; v++ {
		ns := adj[offsets[v]:offsets[v+1]]
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		}
	}
	return g, nil
}

func dedupEdges(sorted []Edge) []Edge {
	out := sorted[:0]
	for i, e := range sorted {
		if i == 0 || e != sorted[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// referenceDiBuild is a directed Builder's Build as it was before
// buildCSR (the builder's pending arcs are Edge{From, To} now, and its
// error is the undirected builder's; nothing else differs).
func referenceDiBuild(b *Builder) (*Graph, error) {
	for _, a := range b.edges {
		if a.U < 0 || int(a.U) >= b.n || a.W < 0 || int(a.W) >= b.n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", a.U, a.W, b.n)
		}
	}
	arcs := make([]Arc, len(b.edges))
	for i, a := range b.edges {
		arcs[i] = Arc{a.U, a.W}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	dedup := arcs[:0]
	for i, a := range arcs {
		if i == 0 || a != arcs[i-1] {
			dedup = append(dedup, a)
		}
	}
	arcs = dedup

	g := &Graph{
		offsets:  make([]int64, b.n+1),
		inOff:    make([]int64, b.n+1),
		adj:      make([]V, len(arcs)),
		in:       make([]V, len(arcs)),
		directed: true,
	}
	for _, a := range arcs {
		g.offsets[a.From+1]++
		g.inOff[a.To+1]++
	}
	for i := 1; i <= b.n; i++ {
		g.offsets[i] += g.offsets[i-1]
		g.inOff[i] += g.inOff[i-1]
	}
	outCur := make([]int64, b.n)
	inCur := make([]int64, b.n)
	copy(outCur, g.offsets[:b.n])
	copy(inCur, g.inOff[:b.n])
	for _, a := range arcs {
		g.adj[outCur[a.From]] = a.To
		outCur[a.From]++
		g.in[inCur[a.To]] = a.From
		inCur[a.To]++
	}
	for v := 0; v < b.n; v++ {
		ins := g.in[g.inOff[v]:g.inOff[v+1]]
		sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	}
	return g, nil
}

// checkAgainstReference builds the same pending pairs as an undirected
// graph and as a digraph, through buildCSR and through the reference
// builders, and compares offsets and adjacency element for element (or
// the error strings, when an endpoint is out of range).
func checkAgainstReference(t testing.TB, n int, pairs []Edge) {
	t.Helper()
	b, db := NewBuilder(n), NewDirectedBuilder(n)
	for _, p := range pairs {
		b.AddEdge(p.U, p.W)
		db.AddEdge(p.U, p.W)
	}
	sameBuilder(t, b)
	sameDiBuilder(t, db)
}

func sameBuilder(t testing.TB, b *Builder) {
	t.Helper()
	want, wantErr := referenceBuild(b)
	got, err := b.Build()
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || wantErr.Error() != err.Error() {
			t.Fatalf("Build error %v, reference %v", err, wantErr)
		}
		return
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) {
		t.Fatalf("Build differs from the reference on n=%d, %d pending edges", b.n, len(b.edges))
	}
}

func sameDiBuilder(t testing.TB, b *Builder) {
	t.Helper()
	want, wantErr := referenceDiBuild(b)
	got, err := b.Build()
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || wantErr.Error() != err.Error() {
			t.Fatalf("directed Build error %v, reference %v", err, wantErr)
		}
		return
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) ||
		!slices.Equal(got.inOff, want.inOff) || !slices.Equal(got.in, want.in) {
		t.Fatalf("directed Build differs from the reference on n=%d, %d pending arcs", b.n, len(b.edges))
	}
}

// randomMultigraph draws m pairs over [0, n) with the mess a real edge
// list has: self-loops, exact duplicates and reversed duplicates.
func randomMultigraph(rng *rand.Rand, n, m int) []Edge {
	pairs := make([]Edge, 0, m)
	for len(pairs) < m {
		u, w := V(rng.Intn(n)), V(rng.Intn(n))
		switch k := rng.Intn(8); {
		case k == 0 && len(pairs) > 0:
			pairs = append(pairs, pairs[rng.Intn(len(pairs))])
		case k == 1 && len(pairs) > 0:
			p := pairs[rng.Intn(len(pairs))]
			pairs = append(pairs, Edge{p.W, p.U})
		case k == 2:
			pairs = append(pairs, Edge{u, u})
		default:
			pairs = append(pairs, Edge{u, w})
		}
	}
	return pairs
}

func TestBuildMatchesReference(t *testing.T) {
	star := func(n int) []Edge {
		var pairs []Edge
		for i := 1; i < n; i++ {
			pairs = append(pairs, Edge{V(i), 0}, Edge{0, V(i)})
		}
		return pairs
	}
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		name  string
		n     int
		pairs []Edge
	}{
		{"n=0", 0, nil},
		{"n=0 with an edge", 0, []Edge{{0, 1}}},
		{"n=1", 1, nil},
		{"n=1 self-loop", 1, []Edge{{0, 0}}},
		{"isolated vertices only", 9, nil},
		{"isolated vertices kept", 50, []Edge{{3, 7}, {7, 3}, {3, 7}, {40, 41}}},
		{"star of degree n-1", 300, star(300)},
		{"endpoint = n", 5, []Edge{{0, 1}, {4, 5}, {7, 2}}},
		{"negative endpoint", 5, []Edge{{0, 1}, {-1, 3}, {2, 9}}},
		{"bad pair behind a good chunk", 40, append(randomMultigraph(rng, 40, 3000), Edge{40, 1})},
		// Past csrWorkers' 64 Ki-pair step, so Build itself fans out.
		{"large multigraph", 2500, randomMultigraph(rng, 2500, 200_000)},
		{"large, bad pair in the last chunk", 2500, append(randomMultigraph(rng, 2500, 150_000), Edge{1, 2500})},
	}
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(70)
		cases = append(cases, struct {
			name  string
			n     int
			pairs []Edge
		}{fmt.Sprintf("random %d", i), n, randomMultigraph(rng, n, rng.Intn(400))})
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, tc.name), func(t *testing.T) {
				checkAgainstReference(t, tc.n, tc.pairs)
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBuildCSRAnyWidth drives the constructor at explicit worker counts
// on inputs too small for Build to fan out on its own, including more
// workers than vertices or pairs.
func TestBuildCSRAnyWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(40)
		var pairs []Edge
		for _, p := range randomMultigraph(rng, n, rng.Intn(300)) {
			if p.U != p.W { // the builders' AddEdge/AddArc drop self-loops
				pairs = append(pairs, p)
			}
		}
		for _, dir := range []struct{ fwd, rev bool }{{true, true}, {true, false}, {false, true}} {
			wantOff, wantAdj, _ := buildCSR(n, pairs, dir.fwd, dir.rev, 1)
			for _, workers := range []int{2, 3, 8, 64} {
				off, adj, bad := buildCSR(n, pairs, dir.fwd, dir.rev, workers)
				if bad != -1 || !slices.Equal(off, wantOff) || !slices.Equal(adj, wantAdj) {
					t.Fatalf("n=%d pairs=%d fwd=%v rev=%v: %d workers differ from 1", n, len(pairs), dir.fwd, dir.rev, workers)
				}
			}
		}
	}
}

// TestBuildAddEdgeBuild: Build does not consume the pending pairs.
func TestBuildAddEdgeBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 60
	b, db := NewBuilder(n), NewDirectedBuilder(n)
	for round := 0; round < 4; round++ {
		for _, p := range randomMultigraph(rng, n, 150) {
			b.AddEdge(p.U, p.W)
			db.AddEdge(p.U, p.W)
		}
		sameBuilder(t, b)
		sameDiBuilder(t, db)
	}
}

// TestInRowMatchesBinarySearch holds the row search to a plain binary
// search on rows its first probe guesses well (uniform, complete) and
// badly (every entry at one end, a cluster in the middle), and on
// queries outside [0, n).
func TestInRowMatchesBinarySearch(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(3))
	rows := map[string][]V{"empty": nil, "one": {500}, "complete": {}}
	for v := V(0); v < n; v++ {
		rows["complete"] = append(rows["complete"], v)
	}
	for _, d := range []int{2, 7, 64, 300} {
		uniform := map[V]bool{}
		for len(uniform) < d {
			uniform[V(rng.Intn(n))] = true
		}
		var u []V
		for v := range uniform {
			u = append(u, v)
		}
		slices.Sort(u)
		rows[fmt.Sprintf("uniform-%d", d)] = u
		var low, high, mid []V
		for i := 0; i < d; i++ {
			low = append(low, V(i))
			high = append(high, V(n-d+i))
			mid = append(mid, V(n/2-d/2+i))
		}
		rows[fmt.Sprintf("low-%d", d)] = low
		rows[fmt.Sprintf("high-%d", d)] = high
		rows[fmt.Sprintf("mid-%d", d)] = mid
	}
	for name, ns := range rows {
		for w := V(-2); w < n+2; w++ {
			_, want := slices.BinarySearch(ns, w)
			if got := inRow(ns, w, n); got != want {
				t.Fatalf("%s: inRow(%d) = %v, want %v", name, w, got, want)
			}
		}
	}
}
