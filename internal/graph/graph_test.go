package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderDedupAndSymmetry(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // reversed duplicate
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop ignored
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(4, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Fatal("unexpected edges present")
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestBuilderRebuildAfterMoreEdges(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g1 := b.MustBuild()
	b.AddEdge(2, 3)
	g2 := b.MustBuild()
	if g1.NumEdges() != 1 || g2.NumEdges() != 2 {
		t.Fatalf("edges: %d then %d, want 1 then 2", g1.NumEdges(), g2.NumEdges())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := ErdosRenyi(200, 600, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := V(0); v < V(g.NumVertices()); v++ {
		ns := g.Neighbors(v)
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Fatalf("neighbours of %d unsorted", v)
		}
	}
}

func TestDegreeAccounting(t *testing.T) {
	g := Star(10)
	if g.Degree(0) != 9 || g.Degree(5) != 1 {
		t.Fatalf("star degrees wrong: %d, %d", g.Degree(0), g.Degree(5))
	}
	if g.MaxDegree() != 9 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 18.0/10 {
		t.Fatalf("AvgDegree = %f", got)
	}
	if g.SizeBytes() != int64(g.NumArcs())*8 {
		t.Fatal("SizeBytes accounting")
	}
}

func TestTopDegreeDeterministicTies(t *testing.T) {
	g := Cycle(10) // all degrees equal: ties broken by id
	top := g.TopDegreeVertices(3)
	if top[0] != 0 || top[1] != 1 || top[2] != 2 {
		t.Fatalf("tie-break not by id: %v", top)
	}
}

func TestFixtureShapes(t *testing.T) {
	cases := []struct {
		name   string
		g      *Graph
		v, e   int
		maxDeg int
	}{
		{"path", Path(5), 5, 4, 2},
		{"cycle", Cycle(6), 6, 6, 2},
		{"star", Star(7), 7, 6, 6},
		{"complete", Complete(5), 5, 10, 4},
		{"grid", Grid(3, 4), 12, 17, 4},
	}
	for _, c := range cases {
		if c.g.NumVertices() != c.v || c.g.NumEdges() != c.e || c.g.MaxDegree() != c.maxDeg {
			t.Fatalf("%s: got (%d,%d,%d), want (%d,%d,%d)", c.name,
				c.g.NumVertices(), c.g.NumEdges(), c.g.MaxDegree(), c.v, c.e, c.maxDeg)
		}
		if err := c.g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	type gen func() *Graph
	gens := map[string]gen{
		"er": func() *Graph { return ErdosRenyi(100, 250, 7) },
		"ba": func() *Graph { return BarabasiAlbert(100, 3, 7) },
		"ws": func() *Graph { return WattsStrogatz(100, 4, 0.3, 7) },
	}
	for name, g := range gens {
		a, b := g(), g()
		ea, eb := a.Edges(), b.Edges()
		if len(ea) != len(eb) {
			t.Fatalf("%s: nondeterministic edge count", name)
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: nondeterministic edges", name)
			}
		}
	}
}

func TestBarabasiAlbertHasHubs(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 99)
	if g.MaxDegree() < 30 {
		t.Fatalf("BA graph lacks hubs: max degree %d", g.MaxDegree())
	}
	if gini := GiniDegree(g); gini < 0.2 {
		t.Fatalf("BA degree Gini %f too flat", gini)
	}
}

func TestErdosRenyiIsFlat(t *testing.T) {
	g := ErdosRenyi(2000, 10000, 99)
	if gini := GiniDegree(g); gini > 0.35 {
		t.Fatalf("ER degree Gini %f too skewed", gini)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.MustBuild()
	labels, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component 0 split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("component 1 wrong")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(5, 6)
	g := b.MustBuild()
	lc, orig := g.LargestComponent()
	if lc.NumVertices() != 4 || lc.NumEdges() != 3 {
		t.Fatalf("largest component: %d vertices %d edges", lc.NumVertices(), lc.NumEdges())
	}
	if len(orig) != 4 || orig[0] != 0 {
		t.Fatalf("orig mapping: %v", orig)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub := g.InducedSubgraph(func(v V) bool { return v != 0 })
	if sub.NumVertices() != 5 { // ids preserved, vertex 0 isolated
		t.Fatal("induced subgraph should keep vertex count")
	}
	if sub.Degree(0) != 0 || sub.NumEdges() != 6 {
		t.Fatalf("induced K4: deg0=%d edges=%d", sub.Degree(0), sub.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := ErdosRenyi(80, 200, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, orig, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	// Isolated vertices are dropped by the text format: compare via
	// canonical edge sets mapped back through orig.
	remapped := make([]Edge, 0, g2.NumEdges())
	for _, e := range g2.Edges() {
		remapped = append(remapped, Edge{V(orig[e.U]), V(orig[e.W])}.Normalize())
	}
	sort.Slice(remapped, func(i, j int) bool {
		if remapped[i].U != remapped[j].U {
			return remapped[i].U < remapped[j].U
		}
		return remapped[i].W < remapped[j].W
	})
	want := g.Edges()
	if len(remapped) != len(want) {
		t.Fatalf("edge count: %d vs %d", len(remapped), len(want))
	}
	for i := range want {
		if remapped[i] != want[i] {
			t.Fatalf("edge %d: %v vs %v", i, remapped[i], want[i])
		}
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := "# comment\n% koblenz comment\n10 20\n20 30\n\n10 30\n"
	g, orig, err := ReadEdgeList(bytes.NewBufferString(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if orig[0] != 10 || orig[1] != 20 || orig[2] != 30 {
		t.Fatalf("orig ids: %v", orig)
	}
}

func TestEdgeListParseErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "a b\n", "1 b\n"} {
		if _, _, err := ReadEdgeList(bytes.NewBufferString(bad), false); err == nil {
			t.Fatalf("input %q: expected error", bad)
		}
	}
}

func TestUnionAndTriadicClosure(t *testing.T) {
	a := Path(6)
	b := Cycle(6)
	u := Union(a, b)
	if u.NumEdges() < b.NumEdges() {
		t.Fatal("union lost edges")
	}
	tc := TriadicClosure(Star(10), 5, 3)
	if tc.NumEdges() < Star(10).NumEdges() {
		t.Fatal("triadic closure lost edges")
	}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHubBoost(t *testing.T) {
	g := ErdosRenyi(500, 1000, 4)
	boosted := HubBoost(g, 3, 100, 5)
	if boosted.MaxDegree() <= g.MaxDegree() {
		t.Fatal("hub boost did not increase max degree")
	}
	if err := boosted.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPropertyQuick(t *testing.T) {
	// Property: for any random edge multiset, Build yields a valid,
	// symmetric, dedup'd CSR whose edge set equals the input set.
	check := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := 2 + int(nRaw)%60
		m := int(mRaw) % 300
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		want := map[Edge]struct{}{}
		for i := 0; i < m; i++ {
			u, w := V(rng.Intn(n)), V(rng.Intn(n))
			b.AddEdge(u, w)
			if u != w {
				want[Edge{u, w}.Normalize()] = struct{}{}
			}
		}
		g, err := b.Build()
		if err != nil || g.Validate() != nil {
			return false
		}
		if g.NumEdges() != len(want) {
			return false
		}
		for _, e := range g.Edges() {
			if _, ok := want[e]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSPGEqualAndVertices(t *testing.T) {
	a := NewSPG(1, 4)
	a.Dist = 2
	a.AddEdge(1, 2)
	a.AddEdge(2, 4)
	a.AddEdge(4, 2) // duplicate reversed
	b := NewSPG(4, 1)
	b.Dist = 2
	b.AddEdge(2, 1)
	b.AddEdge(2, 4)
	if !a.Equal(b) {
		t.Fatal("reversed pair SPGs should be equal")
	}
	vs := a.Vertices()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 4 {
		t.Fatalf("vertices: %v", vs)
	}
	if a.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", a.NumEdges())
	}
}

// TestUndirectedGraphHasOneCSR: whatever made an undirected graph, its
// in-CSR is its out-CSR — the same arrays, not a copy — so it costs the
// bytes of one CSR; its two views are one Adjacency value and its two
// degree arrays one array. AsDirected shares those arrays under two
// views that differ.
func TestUndirectedGraphHasOneCSR(t *testing.T) {
	same := func(a, b []V) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	sameOff := func(a, b []int64) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	er := ErdosRenyi(300, 4000, 2) // its top-up grows the CSR after the build
	read, _, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n5 3\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	off, adj, _, _ := Grid(3, 4).CSR()
	adopted, err := FromCSR(off, adj, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	largest, _ := Union(Path(5), Cycle(9)).LargestComponent()
	relabelled, _, _ := RelabelByDegree(BarabasiAlbert(50, 2, 1))
	for name, g := range map[string]*Graph{
		"zero": {}, "builder": Grid(4, 5), "erdos-renyi": er, "reader": read,
		"FromCSR": adopted, "largest component": largest, "relabelled": relabelled,
	} {
		off, adj, inOff, in := g.CSR()
		if g.Directed() || !sameOff(off, inOff) || !same(adj, in) {
			t.Errorf("%s: the in-CSR is not the out-CSR (directed %v)", name, g.Directed())
		}
		if g.OutView() != g.InView() {
			t.Errorf("%s: OutView and InView differ", name)
		}
	}

	d := AsDirected(er)
	if !d.Directed() || d.OutView() == d.InView() {
		t.Fatal("AsDirected: not directed, or one view for both orientations")
	}
	off, adj, _, _ = er.CSR()
	dOff, dAdj, dInOff, dIn := d.CSR()
	if !sameOff(dOff, off) || !sameOff(dInOff, off) || !same(dAdj, adj) || !same(dIn, adj) {
		t.Fatal("AsDirected copied the CSR")
	}
}
