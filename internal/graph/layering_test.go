package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// diamond is two parallel 2-hop routes plus a long detour:
// 0-1-3, 0-2-3 and 0-4-5-3.
func diamond() *graph.Graph {
	return graph.MustFromEdges(6, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
}

func TestBuildDAGLayers(t *testing.T) {
	d := bfs.OracleSPG(diamond(), 0, 3)
	if d.Dist != 2 {
		t.Fatalf("answer: %v", d)
	}
	if vs, _ := d.Dense(); len(vs) != 4 {
		t.Fatalf("vertices: %v", vs)
	}
	if got := d.Next(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Next(0) = %v", got)
	}
	if got := d.Prev(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Prev(3) = %v", got)
	}
	if d.Depth(0) != 0 || d.Depth(2) != 1 || d.Depth(3) != 2 || d.Depth(5) != -1 {
		t.Fatalf("depths: %d %d %d %d", d.Depth(0), d.Depth(2), d.Depth(3), d.Depth(5))
	}
}

func TestBuildDAGTrivial(t *testing.T) {
	// The trivial answer layers to itself: one vertex, one path.
	d := bfs.OracleSPG(diamond(), 0, 0)
	if n, _ := d.CountPaths(); n != 1 || len(d.Vertices()) != 1 || d.Vertices()[0] != 0 {
		t.Fatalf("trivial answer: %d paths over %v", n, d.Vertices())
	}
	if p := d.EnumeratePaths(0); len(p) != 1 || len(p[0]) != 1 {
		t.Fatalf("trivial paths = %v", p)
	}
	d.Reset(0, 3) // disconnected
	if n, _ := d.CountPaths(); n != 0 || len(d.Vertices()) != 0 || d.EnumeratePaths(0) != nil {
		t.Fatalf("disconnected answer: %d paths over %v", n, d.Vertices())
	}
}

func TestCountPaths(t *testing.T) {
	if n, sat := bfs.OracleSPG(diamond(), 0, 3).CountPaths(); n != 2 || sat {
		t.Fatalf("diamond paths = %d (sat %v), want 2", n, sat)
	}
	// 4-cycle opposite corners: 2 paths.
	if n, _ := bfs.OracleSPG(graph.Cycle(4), 0, 2).CountPaths(); n != 2 {
		t.Fatalf("cycle paths = %d, want 2", n)
	}
	// Grid corner to corner: binomial(4,2)=6 monotone paths on 3x3.
	if n, _ := bfs.OracleSPG(graph.Grid(3, 3), 0, 8).CountPaths(); n != 6 {
		t.Fatalf("grid paths = %d, want 6", n)
	}
	// Figure 1(b)-style: two vertices joined by three length-3 paths.
	three := graph.MustFromEdges(8, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 7},
		{U: 0, W: 3}, {U: 3, W: 4}, {U: 4, W: 7},
		{U: 0, W: 5}, {U: 5, W: 6}, {U: 6, W: 7},
	})
	if n, _ := bfs.OracleSPG(three, 0, 7).CountPaths(); n != 3 {
		t.Fatalf("three-route paths = %d, want 3", n)
	}
}

func TestCountPathsMatchesEnumeration(t *testing.T) {
	g, _ := graph.ErdosRenyi(80, 200, 7).LargestComponent()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		u := graph.V(rng.Intn(g.NumVertices()))
		v := graph.V(rng.Intn(g.NumVertices()))
		if u == v {
			continue
		}
		d := bfs.OracleSPG(g, u, v)
		if d.Dist == graph.InfDist {
			continue
		}
		paths := d.EnumeratePaths(0)
		if n, sat := d.CountPaths(); int64(len(paths)) != n || sat {
			t.Fatalf("pair (%d,%d): %d enumerated vs %d counted (sat %v)", u, v, len(paths), n, sat)
		}
		for _, p := range paths {
			if int32(len(p)-1) != d.Dist {
				t.Fatalf("path %v has wrong length", p)
			}
			if p[0] != u || p[len(p)-1] != v {
				t.Fatalf("path %v has wrong endpoints", p)
			}
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	d := bfs.OracleSPG(graph.Grid(4, 4), 0, 15)
	if got := d.EnumeratePaths(3); len(got) != 3 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

// diamondChain builds a chain of d diamonds: junction vertices
// j_0..j_d, with two parallel interior vertices between consecutive
// junctions. The (j_0, j_d) pair has exactly 2^d shortest paths.
func diamondChain(d int) (*graph.Graph, graph.V, graph.V) {
	n := (d + 1) + 2*d
	b := graph.NewBuilder(n)
	junction := func(i int) graph.V { return graph.V(i * 3) }
	for i := 0; i < d; i++ {
		j0, j1 := junction(i), junction(i+1)
		a, c := graph.V(i*3+1), graph.V(i*3+2)
		b.AddEdge(j0, a)
		b.AddEdge(j0, c)
		b.AddEdge(a, j1)
		b.AddEdge(c, j1)
	}
	return b.MustBuild(), junction(0), junction(d)
}

// TestCountPathsSaturates is the PR 4 overflow regression: a 64-diamond
// chain has 2^64 shortest paths, which used to wrap int64 negative
// (making /spg report negative counts and inverting Truncated). The
// count must now clamp to MaxInt64 and report saturation; one diamond
// short of the ceiling stays exact.
func TestCountPathsSaturates(t *testing.T) {
	// 62 diamonds: 2^62 fits in int64 — exact, not saturated.
	g, u, v := diamondChain(62)
	d := bfs.OracleSPG(g, u, v)
	if n, sat := d.CountPaths(); n != 1<<62 || sat {
		t.Fatalf("62 diamonds: %d (sat %v), want 2^62 exact", n, sat)
	}

	// 64 diamonds: 2^64 overflows — saturate, never go negative.
	g, u, v = diamondChain(64)
	d = bfs.OracleSPG(g, u, v)
	n, sat := d.CountPaths()
	if n != math.MaxInt64 || !sat {
		t.Fatalf("64 diamonds: %d (sat %v), want MaxInt64 saturated", n, sat)
	}
	if n < 0 {
		t.Fatalf("64 diamonds: negative count %d", n)
	}
}

// satAdd adds two non-negative path counts, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// refCountPaths is the path-count DP used before the layering was
// derived from the SPG itself: depths come from a distance oracle, the
// layering lives in maps. Kept as the reference the SPG's own layering
// is checked against.
func refCountPaths(spg *graph.SPG, distFromSource func(graph.V) int32) (int64, bool) {
	if spg.Dist == graph.InfDist || spg.Source == spg.Target {
		return 0, false
	}
	next := make(map[graph.V][]graph.V)
	depth := make(map[graph.V]int32)
	vertices := spg.Vertices()
	for _, v := range vertices {
		depth[v] = distFromSource(v)
	}
	sort.Slice(vertices, func(i, j int) bool {
		di, dj := depth[vertices[i]], depth[vertices[j]]
		if di != dj {
			return di < dj
		}
		return vertices[i] < vertices[j]
	})
	for _, e := range spg.Edges() {
		switch {
		case depth[e.U]+1 == depth[e.W]:
			next[e.U] = append(next[e.U], e.W)
		case depth[e.W]+1 == depth[e.U]:
			next[e.W] = append(next[e.W], e.U)
		}
	}
	counts := map[graph.V]int64{spg.Source: 1}
	saturated := false
	for _, v := range vertices {
		c := counts[v]
		if c == 0 {
			continue
		}
		for _, w := range next[v] {
			s := satAdd(counts[w], c)
			if s == math.MaxInt64 {
				saturated = true
			}
			counts[w] = s
		}
	}
	total := counts[spg.Target]
	return total, saturated && total == math.MaxInt64
}

// TestLayeringMatchesOracles checks, on random graphs and a random
// digraph, everything the oracle-free layering claims: depths within the
// SPG are graph distances from Source, the count equals the enumeration
// and the old oracle-fed DP, and the directed layering of the
// symmetrised graph agrees with the undirected one.
func TestLayeringMatchesOracles(t *testing.T) {
	var d graph.SPG // reused across pairs: stale buffers must not leak into an answer
	check := func(name string, spg *graph.SPG, dist []int32) (int64, bool) {
		u, v := spg.Source, spg.Target
		d.Reset(u, v)
		d.Fill(spg.Directed(), spg.Dist, arcsOf(spg))
		for _, x := range spg.Vertices() {
			if d.Depth(x) != dist[x] {
				t.Fatalf("%s (%d,%d): depth(%d) = %d, BFS distance %d", name, u, v, x, d.Depth(x), dist[x])
			}
		}
		n, sat := d.CountPaths()
		if got := int64(len(d.EnumeratePaths(0))); got != n || sat {
			t.Fatalf("%s (%d,%d): %d enumerated vs %d counted (sat %v)", name, u, v, got, n, sat)
		}
		if u != v {
			if ref, refSat := refCountPaths(spg, func(x graph.V) int32 { return dist[x] }); ref != n || refSat != sat {
				t.Fatalf("%s (%d,%d): counted %d, reference DP %d", name, u, v, n, ref)
			}
		}
		return n, sat
	}
	er, _ := graph.ErdosRenyi(120, 300, 11).LargestComponent()
	ba, _ := graph.BarabasiAlbert(200, 3, 5).LargestComponent()
	for name, g := range map[string]*graph.Graph{"ErdosRenyi": er, "BarabasiAlbert": ba} {
		dg := graph.AsDirected(g)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 150; i++ {
			u := graph.V(rng.Intn(g.NumVertices()))
			v := graph.V(rng.Intn(g.NumVertices()))
			n, sat := check(name, bfs.OracleSPG(g, u, v), bfs.Distances(g, u))
			if di, diSat := bfs.OracleDiSPG(dg, u, v).CountPaths(); di != n || diSat != sat {
				t.Fatalf("%s (%d,%d): undirected %d vs directed %d", name, u, v, n, di)
			}
		}
	}
	dg := graph.DirectedErdosRenyi(150, 450, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		u := graph.V(rng.Intn(dg.NumVertices()))
		v := graph.V(rng.Intn(dg.NumVertices()))
		check("DirectedErdosRenyi", bfs.OracleDiSPG(dg, u, v), bfs.Distances(dg.OutView(), u))
	}
}

// arcsOf returns the edges of spg as the arcs a search hands to Fill.
func arcsOf(spg *graph.SPG) []graph.Arc {
	var arcs []graph.Arc
	for _, e := range spg.Edges() {
		arcs = append(arcs, graph.Arc{From: e.U, To: e.W})
	}
	return arcs
}

// TestWarmDAGZeroAllocs: refilling, layering and counting an answer
// that has held one of the same size does not allocate, whatever the
// orientation.
func TestWarmDAGZeroAllocs(t *testing.T) {
	grid := graph.Grid(12, 12)
	large, small := arcsOf(bfs.OracleSPG(grid, 0, 143)), arcsOf(bfs.OracleSPG(grid, 0, 13))
	var d graph.SPG
	fill := func(directed bool, v graph.V, dist int32, arcs []graph.Arc) int64 {
		d.Reset(0, v)
		d.Fill(directed, dist, arcs)
		n, _ := d.CountPaths()
		return n
	}
	fill(false, 143, 22, large)
	var n int64
	if allocs := testing.AllocsPerRun(50, func() {
		fill(false, 13, 2, small)
		n = fill(false, 143, 22, large)
		fill(true, 143, 22, large)
	}); allocs != 0 {
		t.Fatalf("warm Fill+CountPaths: %v allocs/op, want 0", allocs)
	}
	if n != 705432 { // binomial(22, 11)
		t.Fatalf("grid paths = %d", n)
	}
	if dn, _ := d.CountPaths(); dn != n {
		t.Fatalf("directed grid paths = %d, undirected %d", dn, n)
	}
}

// TestDAGIDTableModel checks the layering against a map-and-BFS model
// under vertex ids chosen against the id table: the ids as they are, ids
// that are all multiples of the table's size, and ids that all hash to
// slot 0 (multiples of the hash multiplier's inverse, so that the
// product is the small multiplier itself) and therefore probe the whole
// cluster every time. One SPG serves every case in turn, a 5100-edge
// answer right before a 3-edge one, so a slot, a rank or a row left
// behind by a larger answer would show in a smaller one. The edges in
// ranks (SPG.Dense) are the answer's, in its canonical order.
func TestDAGIDTableModel(t *testing.T) {
	const hashInverse = 0x0E8B2F51 // 0x9E3779B1 · hashInverse ≡ 1 (mod 2³²)
	relabels := map[string]func(graph.V) graph.V{
		"identity":         func(v graph.V) graph.V { return v },
		"table multiples":  func(v graph.V) graph.V { return v << 15 },
		"one hash cluster": func(v graph.V) graph.V { return graph.V(uint32(v+1) * hashInverse) },
	}
	answers := []struct {
		g    *graph.Graph
		u, v graph.V
	}{
		{graph.Grid(51, 51), 0, 51*51 - 1}, // 5100 edges
		{graph.Path(4), 0, 3},              // 3 edges
		{graph.Grid(9, 9), 40, 0},
		{graph.Grid(3, 3), 4, 4}, // the trivial pair
	}
	var d graph.SPG
	for name, relabel := range relabels {
		for _, directed := range []bool{false, true} {
			for _, a := range answers {
				dist := bfs.Distances(a.g, a.u)
				oracle := bfs.OracleSPG(a.g, a.u, a.v)
				var found []graph.Arc
				next := map[graph.V][]graph.V{}
				for _, e := range oracle.Edges() {
					x, y := e.U, e.W
					if dist[x] > dist[y] {
						x, y = y, x
					}
					found = append(found, graph.Arc{From: relabel(x), To: relabel(y)})
					next[relabel(x)] = append(next[relabel(x)], relabel(y))
				}
				d.Reset(relabel(a.u), relabel(a.v))
				d.Fill(directed, oracle.Dist, found)
				want := graph.NewSPG(relabel(a.u), relabel(a.v))
				if directed {
					want = graph.NewDiSPG(relabel(a.u), relabel(a.v))
				}
				for _, f := range found {
					want.AddEdge(f.From, f.To)
				}
				label := fmt.Sprintf("%s directed=%v %d edges", name, directed, oracle.NumEdges())
				// The edges in ranks are the answer's, in its canonical order.
				vertices, edges := d.Dense()
				if len(edges) != want.NumEdges() {
					t.Fatalf("%s: %d edges in ranks for %d edges", label, len(edges), want.NumEdges())
				}
				for i, e := range want.Edges() {
					if l := edges[i]; vertices[l[0]] != e.U || vertices[l[1]] != e.W {
						t.Fatalf("%s: edge %d is %d-%d in ranks %v, want %v", label, i, vertices[l[0]], vertices[l[1]], l, e)
					}
				}

				var wantVertices []graph.V
				for _, x := range oracle.Vertices() {
					wantVertices = append(wantVertices, relabel(x))
				}
				slices.Sort(wantVertices)
				if !slices.Equal(vertices, wantVertices) {
					t.Fatalf("%s: vertices %v, want %v", label, vertices, wantVertices)
				}
				for _, x := range oracle.Vertices() {
					if got := d.Depth(relabel(x)); got != dist[x] {
						t.Fatalf("%s: depth(%d) = %d, want %d", label, relabel(x), got, dist[x])
					}
					want := next[relabel(x)]
					slices.Sort(want)
					if got := d.Next(relabel(x)); !slices.Equal(got, want) {
						t.Fatalf("%s: next(%d) = %v, want %v", label, relabel(x), got, want)
					}
				}
				paths := int64(1)
				if a.u != a.v {
					paths, _ = refCountPaths(oracle, func(x graph.V) int32 { return dist[x] })
				}
				if got, _ := d.CountPaths(); got != paths {
					t.Fatalf("%s: %d paths, want %d", label, got, paths)
				}
			}
		}
	}
}

// FuzzDAGFromEdges feeds arbitrary edge lists — duplicates, self
// loops, pieces unreachable from Source, Source or Target absent,
// cycles — through both layerings and every accessor. Nothing may
// panic or index out of range, and whatever the layering reports must
// be consistent with itself.
func FuzzDAGFromEdges(f *testing.F) {
	f.Add(int32(0), int32(3), []byte{0, 1, 1, 3, 0, 2, 2, 3})
	f.Add(int32(0), int32(0), []byte{})
	f.Add(int32(9), int32(1), []byte{0, 1, 0, 1, 1, 1, 2, 0})
	f.Add(int32(0), int32(2), []byte{0, 1, 1, 2, 2, 0, 5, 6, 6, 5})
	// Ids that share one slot of the 32-slot id table these sizes get: a
	// path, then a diamond with a repeated edge.
	f.Add(int32(1), int32(111), []byte{1, 22, 22, 56, 56, 90, 90, 111})
	f.Add(int32(1), int32(111), []byte{1, 22, 1, 56, 22, 90, 56, 90, 90, 111, 90, 111})
	f.Fuzz(func(t *testing.T, source, target int32, raw []byte) {
		// 48 edges keep the enumeration's dead ends, which an exact SPG
		// does not have, from exploding.
		raw = raw[:min(len(raw), 96)]
		spg, dspg := graph.NewSPG(source, target), graph.NewDiSPG(source, target)
		var arcs []graph.Arc
		for i := 0; i+1 < len(raw); i += 2 {
			spg.AddEdge(graph.V(raw[i]), graph.V(raw[i+1]))
			dspg.AddEdge(graph.V(raw[i]), graph.V(raw[i+1]))
			arcs = append(arcs, graph.Arc{From: graph.V(raw[i]), To: graph.V(raw[i+1])})
		}
		check := func(d *graph.SPG) {
			vertices, edges := d.Dense()
			for _, e := range edges {
				if e[0] < 0 || int(e[0]) >= len(vertices) || e[1] < 0 || int(e[1]) >= len(vertices) {
					t.Fatalf("edge %v outside %d vertices", e, len(vertices))
				}
			}
			for _, v := range vertices {
				for _, w := range d.Next(v) {
					if d.Depth(w) != d.Depth(v)+1 {
						t.Fatalf("arc %d→%d joins depths %d and %d", v, w, d.Depth(v), d.Depth(w))
					}
				}
				d.Prev(v)
			}
			d.Next(-7)
			d.Depth(1 << 20)
			n, sat := d.CountPaths()
			if n < 0 || sat != (n == math.MaxInt64) {
				t.Fatalf("count %d saturated %v", n, sat)
			}
			if paths := d.EnumeratePaths(64); n < 64 && int64(len(paths)) != n {
				t.Fatalf("%d enumerated vs %d counted", len(paths), n)
			}
		}
		check(spg)
		check(dspg)
		// The raw pairs, neither sorted nor deduplicated, refilled into a
		// used answer of either orientation.
		spg.Reset(source, target)
		spg.Fill(len(raw)%2 == 0, 1, arcs)
		check(spg)
	})
}
