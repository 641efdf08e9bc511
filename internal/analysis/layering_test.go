package analysis

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

// refCountPaths is the path-count DP this package used before the
// layering was derived from the SPG itself: depths come from a distance
// oracle, the DAG lives in maps. Kept as the reference the slice-backed
// DAG is checked against.
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

// TestLayeringMatchesOracles checks, on random graphs, everything the
// oracle-free layering claims: depths within the SPG are graph
// distances from Source, the count equals the enumeration and the old
// oracle-fed DP, and the directed layering of the symmetrised graph
// agrees with the undirected one.
func TestLayeringMatchesOracles(t *testing.T) {
	er, _ := graph.ErdosRenyi(120, 300, 11).LargestComponent()
	ba, _ := graph.BarabasiAlbert(200, 3, 5).LargestComponent()
	for name, g := range map[string]*graph.Graph{"ErdosRenyi": er, "BarabasiAlbert": ba} {
		dg := graph.AsDirected(g)
		rng := rand.New(rand.NewSource(3))
		var d DAG // reused across pairs: stale buffers must not leak into an answer
		for i := 0; i < 150; i++ {
			u := graph.V(rng.Intn(g.NumVertices()))
			v := graph.V(rng.Intn(g.NumVertices()))
			spg := bfs.OracleSPG(g, u, v)
			dist := bfs.Distances(g, u)
			d.Reset(spg)
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
			if di, diSat := CountDiPaths(bfs.OracleDiSPG(dg, u, v), nil); di != n || diSat != sat {
				t.Fatalf("%s (%d,%d): undirected %d vs directed %d", name, u, v, n, di)
			}
		}
	}
}

// TestCallbackNeverInvoked pins the frozen signatures' contract: the
// distance callback is dead.
func TestCallbackNeverInvoked(t *testing.T) {
	g := graph.Grid(4, 4)
	fail := func(graph.V) int32 {
		t.Fatal("distFromSource invoked")
		return 0
	}
	if n, _ := BuildDAG(bfs.OracleSPG(g, 0, 15), fail).CountPaths(); n != 20 {
		t.Fatalf("grid paths = %d, want 20", n)
	}
	if n, _ := CountDiPaths(bfs.OracleDiSPG(graph.AsDirected(g), 0, 15), fail); n != 20 {
		t.Fatalf("directed grid paths = %d, want 20", n)
	}
}

// TestWarmDAGZeroAllocs: re-layering and counting on a DAG that has
// seen an answer of the same size does not allocate.
func TestWarmDAGZeroAllocs(t *testing.T) {
	spg := bfs.OracleSPG(graph.Grid(12, 12), 0, 143)
	small := bfs.OracleSPG(graph.Grid(12, 12), 0, 13)
	dspg := bfs.OracleDiSPG(graph.AsDirected(graph.Grid(12, 12)), 0, 143)
	var d DAG
	d.Reset(spg)
	var n int64
	if allocs := testing.AllocsPerRun(50, func() {
		d.Reset(small)
		d.Reset(spg)
		n, _ = d.CountPaths()
		d.Reset(dspg)
	}); allocs != 0 {
		t.Fatalf("warm Reset+CountPaths: %v allocs/op, want 0", allocs)
	}
	if n != 705432 { // binomial(22, 11)
		t.Fatalf("grid paths = %d", n)
	}
}

// TestDAGIDTableModel checks the layering against a map-and-BFS model
// under vertex ids chosen against the id table: the ids as they are, ids
// that are all multiples of the table's size, and ids that all hash to
// slot 0 (multiples of the hash multiplier's inverse, so that the
// product is the small multiplier itself) and therefore probe the whole
// cluster every time. One DAG serves every case in turn, a 5100-edge
// answer right before a 3-edge one, so a slot, a rank or a row left
// behind by a larger answer would show in a smaller one. The edges in
// local ids (DAG.Edges) are the answer's, in its canonical order.
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
	var d DAG
	for name, relabel := range relabels {
		for _, directed := range []bool{false, true} {
			for _, a := range answers {
				dist := bfs.Distances(a.g, a.u)
				oracle := bfs.OracleSPG(a.g, a.u, a.v)
				spg := graph.NewSPG(relabel(a.u), relabel(a.v))
				dspg := graph.NewDiSPG(relabel(a.u), relabel(a.v))
				spg.Dist, dspg.Dist = oracle.Dist, oracle.Dist
				next := map[graph.V][]graph.V{}
				for _, e := range oracle.Edges() {
					x, y := e.U, e.W
					if dist[x] > dist[y] {
						x, y = y, x
					}
					spg.AddEdge(relabel(x), relabel(y))
					dspg.AddEdge(relabel(x), relabel(y))
					next[relabel(x)] = append(next[relabel(x)], relabel(y))
				}
				answer := spg
				if directed {
					answer = dspg
				}
				d.Reset(answer)
				label := fmt.Sprintf("%s directed=%v %d edges", name, directed, oracle.NumEdges())
				// The local-id edges are the answer's, in its canonical order.
				if len(d.Edges()) != answer.NumEdges() {
					t.Fatalf("%s: %d local-id edges for %d edges", label, len(d.Edges()), answer.NumEdges())
				}
				for i, e := range answer.Edges() {
					if l := d.Edges()[i]; d.Vertices[l[0]] != e.U || d.Vertices[l[1]] != e.W {
						t.Fatalf("%s: edge %d is %d-%d in local ids %v, want %v", label, i, d.Vertices[l[0]], d.Vertices[l[1]], l, e)
					}
				}

				var vertices []graph.V
				for _, x := range oracle.Vertices() {
					vertices = append(vertices, relabel(x))
				}
				slices.Sort(vertices)
				if !slices.Equal(d.Vertices, vertices) {
					t.Fatalf("%s: vertices %v, want %v", label, d.Vertices, vertices)
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
				want := int64(1)
				if a.u != a.v {
					want, _ = refCountPaths(oracle, func(x graph.V) int32 { return dist[x] })
				}
				if got, _ := d.CountPaths(); got != want {
					t.Fatalf("%s: %d paths, want %d", label, got, want)
				}
			}
		}
	}
}

// FuzzDAGFromEdges feeds arbitrary edge lists — duplicates, self
// loops, pieces unreachable from Source, Source or Target absent,
// cycles — through both layerings and every accessor. Nothing may
// panic or index out of range, and whatever the DAG reports must be
// consistent with itself.
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
		for i := 0; i+1 < len(raw); i += 2 {
			spg.AddEdge(graph.V(raw[i]), graph.V(raw[i+1]))
			dspg.AddEdge(graph.V(raw[i]), graph.V(raw[i+1]))
		}
		var d DAG
		check := func() {
			for _, v := range d.Vertices {
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
		d.Reset(spg)
		check()
		d.Reset(dspg)
		check()
		// The raw pairs, neither sorted nor deduplicated.
		d.Source, d.Target = source, target
		d.pairs = d.pairs[:0]
		for i := 0; i+1 < len(raw); i += 2 {
			d.pairs = append(d.pairs, [2]int32{int32(raw[i]), int32(raw[i+1])})
		}
		d.layer(len(raw)%2 == 0)
		d.CountPaths()
	})
}
