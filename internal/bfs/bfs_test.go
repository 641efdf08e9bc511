package bfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qbs/internal/graph"
)

func TestDistancesOnPath(t *testing.T) {
	g := graph.Path(6)
	d := Distances(g, 0)
	for i := 0; i < 6; i++ {
		if d[i] != int32(i) {
			t.Fatalf("d[%d] = %d", i, d[i])
		}
	}
}

func TestDistancesDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, W: 1}})
	d := Distances(g, 0)
	if d[2] != Infinity || d[3] != Infinity {
		t.Fatal("unreachable vertices must be Infinity")
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace(10)
	ws.Reset()
	ws.SetDist(3, 7)
	if ws.Dist(3) != 7 || ws.Dist(4) != Infinity {
		t.Fatal("workspace basic ops")
	}
	ws.Reset()
	if ws.Seen(3) {
		t.Fatal("reset must invalidate")
	}
	// The reset internals are exercised in traverse's own model tests,
	// where the Workspace lives.
}

func TestOracleSPGPath(t *testing.T) {
	g := graph.Path(5)
	s := OracleSPG(g, 0, 4)
	if s.Dist != 4 || s.NumEdges() != 4 {
		t.Fatalf("path SPG: dist=%d edges=%d", s.Dist, s.NumEdges())
	}
}

func TestOracleSPGMultiplePaths(t *testing.T) {
	// 4-cycle: two shortest paths between opposite corners.
	g := graph.Cycle(4)
	s := OracleSPG(g, 0, 2)
	if s.Dist != 2 || s.NumEdges() != 4 {
		t.Fatalf("cycle SPG: dist=%d edges=%d", s.Dist, s.NumEdges())
	}
}

func TestOracleSPGExcludesNonShortestEdges(t *testing.T) {
	// Triangle plus pendant: SPG(0,1) is just the edge, not the detour.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0}})
	s := OracleSPG(g, 0, 1)
	if s.NumEdges() != 1 {
		t.Fatalf("triangle SPG(0,1) edges=%d, want 1", s.NumEdges())
	}
}

func TestBiBFSMatchesOracle(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(12),
		graph.Cycle(11),
		graph.Star(15),
		graph.Grid(5, 6),
		graph.Complete(7),
		graph.ErdosRenyi(150, 350, 3),
		graph.BarabasiAlbert(150, 3, 4),
		graph.WattsStrogatz(120, 4, 0.2, 5),
	}
	for gi, g := range graphs {
		b := NewBidirectional(g)
		rng := rand.New(rand.NewSource(int64(gi)))
		n := g.NumVertices()
		for i := 0; i < 80; i++ {
			u := graph.V(rng.Intn(n))
			v := graph.V(rng.Intn(n))
			got, _ := b.Query(u, v)
			want := OracleSPG(g, u, v)
			if !got.Equal(want) {
				t.Fatalf("graph %d: BiBFS(%d,%d) = %v, want %v", gi, u, v, got, want)
			}
		}
	}
}

func TestBiBFSDisconnected(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, W: 1}, {U: 2, W: 3}, {U: 4, W: 5}})
	s := BiBFS(g, 0, 5)
	if s.Dist != graph.InfDist || s.NumEdges() != 0 {
		t.Fatalf("disconnected: dist=%d edges=%d", s.Dist, s.NumEdges())
	}
}

func TestBiBFSTrivialAndAdjacent(t *testing.T) {
	g := graph.Complete(5)
	if s := BiBFS(g, 2, 2); s.Dist != 0 || s.NumEdges() != 0 {
		t.Fatal("trivial query wrong")
	}
	if s := BiBFS(g, 0, 1); s.Dist != 1 || s.NumEdges() != 1 {
		t.Fatal("adjacent query wrong")
	}
}

func TestBiBFSStatsCounters(t *testing.T) {
	g := graph.ErdosRenyi(200, 500, 9)
	b := NewBidirectional(g)
	_, st := b.Query(0, graph.V(g.NumVertices()-1))
	if st.ArcsScanned <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.ArcsScanned > int64(g.NumArcs())*2 {
		t.Fatalf("arcs scanned %d exceeds plausible bound", st.ArcsScanned)
	}
}

func TestBiBFSQuickProperty(t *testing.T) {
	check := func(seed int64, nRaw, mRaw uint8) bool {
		n := 5 + int(nRaw)%60
		m := int(mRaw) % (3 * n)
		g := graph.ErdosRenyi(n, m, seed)
		b := NewBidirectional(g)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10; i++ {
			u := graph.V(rng.Intn(n))
			v := graph.V(rng.Intn(n))
			got, _ := b.Query(u, v)
			if !got.Equal(OracleSPG(g, u, v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractPathsFromMidpoint(t *testing.T) {
	// Distances from 0 on a path; extracting from the far end must
	// recover exactly the path edges.
	g := graph.Path(6)
	side := growSide(g, g, 0, nil, 5)
	for _, flip := range []bool{false, true} {
		side.backward = flip
		pairs, arcs := NewExtractor(6).Extract(side, nil, []graph.V{5})
		spg := graph.NewSPG(0, 5)
		spg.Fill(false, 5, pairs)
		if spg.NumEdges() != 5 {
			t.Fatalf("flip=%v: extracted %d edges, want 5", flip, spg.NumEdges())
		}
		if arcs <= 0 {
			t.Fatal("arc counter not incremented")
		}
		// A predecessor y of x is y→x, reversed on a backward side.
		for _, p := range pairs {
			if (p.From < p.To) == flip {
				t.Fatalf("flip=%v: pair %d→%d points the wrong way", flip, p.From, p.To)
			}
		}
	}
}

func TestDirectedBidirectionalMatchesOracle(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"dicycle": graph.MustFromArcs(7, []graph.Arc{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
			{From: 4, To: 5}, {From: 5, To: 6}, {From: 6, To: 0},
		}),
		"diamond": graph.MustFromArcs(5, []graph.Arc{
			{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3},
			{From: 3, To: 4}, {From: 4, To: 0}, // back arc
		}),
		"der300":  graph.DirectedErdosRenyi(300, 1200, 3),
		"der150":  graph.DirectedErdosRenyi(150, 450, 4),
		"dsf200":  graph.DirectedScaleFree(200, 2, 5),
		"dsf300":  graph.DirectedScaleFree(300, 3, 6),
		"undirBA": graph.AsDirected(graph.BarabasiAlbert(200, 3, 7)),
	} {
		b := NewBidirectional(g)
		rng := rand.New(rand.NewSource(23))
		n := g.NumVertices()
		for i := 0; i < 80; i++ {
			u := graph.V(rng.Intn(n))
			v := graph.V(rng.Intn(n))
			got, _ := b.Query(u, v)
			want := OracleDiSPG(g, u, v)
			if !got.Equal(want) {
				t.Fatalf("%s: DiBiBFS(%d,%d) = %v, want %v", name, u, v, got, want)
			}
		}
	}
}
