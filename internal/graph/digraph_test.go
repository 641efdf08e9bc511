package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestDiBuilderDedupSelfLoops(t *testing.T) {
	b := NewDiBuilder(4)
	b.AddArc(0, 1)
	b.AddArc(0, 1) // duplicate
	b.AddArc(1, 0) // reverse is distinct in a digraph
	b.AddArc(2, 2) // self-loop dropped
	b.AddArc(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 3 {
		t.Fatalf("arcs = %d, want 3", g.NumArcs())
	}
	if !g.HasArc(0, 1) || !g.HasArc(1, 0) || g.HasArc(3, 2) {
		t.Fatal("arc membership wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDiBuilderOutOfRange(t *testing.T) {
	b := NewDiBuilder(2)
	b.AddArc(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
}

func TestDiDegrees(t *testing.T) {
	g := MustDiFromArcs(4, []Arc{{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 0}})
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Fatalf("degrees of 0: out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(1) != 0 || g.InDegree(1) != 1 {
		t.Fatal("degrees of 1")
	}
}

func TestTotalDegreeOrder(t *testing.T) {
	g := MustDiFromArcs(4, []Arc{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 0, To: 3},
		{From: 1, To: 0}, {From: 2, To: 0},
	})
	order := g.TotalDegreeOrder()
	if order[0] != 0 {
		t.Fatalf("order = %v, hub must be first", order)
	}
}

// The packed-key sort and the top-k heap order vertices exactly as the
// comparator they replaced did (descending in+out degree, ties by
// ascending id), on graphs where most degrees tie.
func TestTotalDegreeOrderMatchesComparator(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := DirectedErdosRenyi(600, 1500, seed)
		want := make([]V, g.NumVertices())
		for i := range want {
			want[i] = V(i)
		}
		sort.Slice(want, func(i, j int) bool {
			di := g.OutDegree(want[i]) + g.InDegree(want[i])
			dj := g.OutDegree(want[j]) + g.InDegree(want[j])
			if di != dj {
				return di > dj
			}
			return want[i] < want[j]
		})
		if got := g.TotalDegreeOrder(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: TotalDegreeOrder differs from the comparator sort", seed)
		}
		for _, k := range []int{0, 1, 20, 37, 38, 600, 1000} { // 37 < n/16 ≤ 38: both sides of the heap cut-over
			if got := g.TopTotalDegreeVertices(k); !slices.Equal(got, want[:min(k, len(want))]) {
				t.Fatalf("seed %d: TopTotalDegreeVertices(%d) = %v, want %v", seed, k, got, want[:min(k, len(want))])
			}
		}
	}
}

func TestAsDirectedSymmetry(t *testing.T) {
	ug := Grid(3, 3)
	dg := AsDirected(ug)
	if dg.NumArcs() != ug.NumArcs() {
		t.Fatalf("arcs = %d, want %d", dg.NumArcs(), ug.NumArcs())
	}
	for u := V(0); u < 9; u++ {
		for _, w := range ug.Neighbors(u) {
			if !dg.HasArc(u, w) || !dg.HasArc(w, u) {
				t.Fatalf("missing symmetric arcs %d<->%d", u, w)
			}
		}
	}
	if err := dg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedGeneratorsDeterministicAndValid(t *testing.T) {
	a := DirectedErdosRenyi(200, 800, 3)
	b := DirectedErdosRenyi(200, 800, 3)
	if a.NumArcs() != b.NumArcs() {
		t.Fatal("DER nondeterministic")
	}
	aa, bb := a.Arcs(), b.Arcs()
	for i := range aa {
		if aa[i] != bb[i] {
			t.Fatal("DER arcs differ")
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sf := DirectedScaleFree(500, 3, 7)
	if err := sf.Validate(); err != nil {
		t.Fatal(err)
	}
	sf2 := DirectedScaleFree(500, 3, 7)
	if sf.NumArcs() != sf2.NumArcs() {
		t.Fatal("DSF nondeterministic")
	}
	// Scale-free: hubs must emerge.
	maxIn := 0
	for v := V(0); v < 500; v++ {
		if d := sf.InDegree(v); d > maxIn {
			maxIn = d
		}
	}
	if maxIn < 15 {
		t.Fatalf("scale-free digraph lacks in-hubs: max in-degree %d", maxIn)
	}
}

func TestDiBuilderQuickProperty(t *testing.T) {
	check := func(data []byte) bool {
		const n = 20
		b := NewDiBuilder(n)
		want := map[Arc]struct{}{}
		for i := 0; i+1 < len(data) && i < 400; i += 2 {
			u, w := V(data[i]%n), V(data[i+1]%n)
			b.AddArc(u, w)
			if u != w {
				want[Arc{u, w}] = struct{}{}
			}
		}
		g, err := b.Build()
		if err != nil || g.Validate() != nil {
			return false
		}
		if g.NumArcs() != len(want) {
			return false
		}
		for _, a := range g.Arcs() {
			if _, ok := want[a]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDiSPGEqualOrdered(t *testing.T) {
	a := NewDiSPG(0, 3)
	a.Dist = 2
	a.AddEdge(0, 1)
	a.AddEdge(1, 3)
	a.AddEdge(1, 3) // dup
	b := NewDiSPG(0, 3)
	b.Dist = 2
	b.AddEdge(1, 3)
	b.AddEdge(0, 1)
	if !a.Equal(b) {
		t.Fatal("same arc sets must be equal")
	}
	c := NewDiSPG(3, 0) // reversed pair is NOT equal for directed
	c.Dist = 2
	c.AddEdge(0, 1)
	c.AddEdge(1, 3)
	if a.Equal(c) {
		t.Fatal("directed SPGs with swapped endpoints must differ")
	}
	if a.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", a.NumEdges())
	}
	vs := a.Vertices()
	if len(vs) != 3 || vs[0] != 0 || vs[2] != 3 {
		t.Fatalf("vertices = %v", vs)
	}
}

// TestSPGOrientation pins what the orientation bit means, over random
// pair sets: a directed answer keeps its pairs and an undirected one
// normalises them; Equal is sensitive to the order of the pair iff the
// answer is directed, and never equates the two orientations; Fill
// stamps whatever orientation it is given over the one the answer had;
// Arcs, the benchmark's shim, is Edges element for element.
func TestSPGOrientation(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := V(2 + rng.Intn(30))
		pairs := make([]Arc, rng.Intn(40))
		for i := range pairs {
			pairs[i] = Arc{From: V(rng.Int31n(int32(n))), To: V(rng.Int31n(int32(n)))}
		}
		u, v := V(rng.Int31n(int32(n))), V(rng.Int31n(int32(n)))
		for _, directed := range []bool{false, true} {
			s := NewSPG(u, v)
			if !directed {
				s = NewDiSPG(u, v) // Fill must overwrite the orientation either way
			}
			s.Reset(u, v)
			s.Fill(directed, 3, pairs)
			if s.Directed() != directed {
				t.Fatalf("Fill(%v) left Directed() = %v", directed, s.Directed())
			}
			want := map[Edge]bool{}
			for _, p := range pairs {
				e := Edge{p.From, p.To}
				if !directed {
					e = e.Normalize()
				}
				want[e] = true
			}
			edges, arcs := s.Edges(), s.Arcs()
			if len(edges) != len(want) || len(arcs) != len(edges) {
				t.Fatalf("directed=%v: %d edges, %d arcs, want %d", directed, len(edges), len(arcs), len(want))
			}
			for i, e := range edges {
				if !want[e] || (i > 0 && (edges[i-1].U > e.U || edges[i-1].U == e.U && edges[i-1].W >= e.W)) {
					t.Fatalf("directed=%v: edge %d = %v unexpected or out of order", directed, i, e)
				}
				if arcs[i] != (Arc{e.U, e.W}) {
					t.Fatalf("Arcs()[%d] = %v, Edges()[%d] = %v", i, arcs[i], i, e)
				}
			}

			// The same edge set under the swapped pair.
			swapped := NewSPG(v, u)
			swapped.Fill(directed, 3, pairs)
			if got, want := s.Equal(swapped), !directed || u == v; got != want {
				t.Fatalf("directed=%v: Equal under swapped pair (%d,%d) = %v, want %v", directed, u, v, got, want)
			}
			other := NewSPG(u, v)
			other.Fill(!directed, 3, pairs)
			if s.Equal(other) || other.Equal(s) {
				t.Fatalf("answers of different orientation compare equal")
			}
		}
	}
}
