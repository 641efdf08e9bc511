package qbs_test

import (
	"math/rand"
	"sync"
	"testing"

	"qbs"
)

// shadowGraph mirrors the dynamic index's edge set so tests can
// materialise ground truth at any point.
type shadowGraph struct {
	n     int
	edges map[qbs.Edge]bool
}

func newShadow(g *qbs.Graph) *shadowGraph {
	s := &shadowGraph{n: g.NumVertices(), edges: map[qbs.Edge]bool{}}
	for _, e := range g.Edges() {
		s.edges[e] = true
	}
	return s
}

func (s *shadowGraph) apply(u, v qbs.V, insert bool) {
	e := qbs.Edge{U: u, W: v}.Normalize()
	if insert {
		s.edges[e] = true
	} else {
		delete(s.edges, e)
	}
}

func (s *shadowGraph) materialize() *qbs.Graph {
	es := make([]qbs.Edge, 0, len(s.edges))
	for e := range s.edges {
		es = append(es, e)
	}
	g, err := qbs.FromEdges(s.n, es)
	if err != nil {
		panic(err)
	}
	return g
}

func randomSeedGraph(n int, extra int, rng *rand.Rand) *qbs.Graph {
	b := qbs.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(qbs.V(v), qbs.V(rng.Intn(v)))
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(qbs.V(u), qbs.V(v))
		}
	}
	return b.MustBuild()
}

// TestDynamicIndexMatchesOracle is the acceptance property test: across
// ≥1000 random update sequences, every sampled Query(u, v) on the
// mutated graph must equal the brute-force oracle, and at the end of
// each sequence the dynamic index must agree with a freshly built static
// index over the same landmarks.
func TestDynamicIndexMatchesOracle(t *testing.T) {
	const sequences = 1000
	rng := rand.New(rand.NewSource(20210615))
	for seq := 0; seq < sequences; seq++ {
		n := 16 + rng.Intn(33)
		g := randomSeedGraph(n, rng.Intn(2*n), rng)
		shadow := newShadow(g)
		opts := qbs.DynamicOptions{
			Index:           qbs.Options{NumLandmarks: 1 + rng.Intn(5), Strategy: qbs.StrategyDegree},
			CompactFraction: -1,
		}
		switch seq % 3 {
		case 1:
			opts.RepairBudget = 1 // force the re-BFS fallback on deletions
		case 2:
			opts.CompactFraction = 0.3 // let auto-compaction kick in
		}
		di, err := qbs.BuildDynamicIndex(g, opts)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		ops := 8 + rng.Intn(18)
		for op := 0; op < ops; op++ {
			u := qbs.V(rng.Intn(n))
			v := qbs.V(rng.Intn(n))
			if u == v {
				continue
			}
			insert := !di.HasEdge(u, v)
			var changed bool
			if insert {
				changed, err = di.AddEdge(u, v)
			} else {
				changed, err = di.RemoveEdge(u, v)
			}
			if err != nil {
				t.Fatalf("seq %d op %d {%d,%d}: %v", seq, op, u, v, err)
			}
			if !changed {
				t.Fatalf("seq %d op %d {%d,%d}: update reported no change", seq, op, u, v)
			}
			shadow.apply(u, v, insert)
			mat := shadow.materialize()
			for q := 0; q < 2; q++ {
				a := qbs.V(rng.Intn(n))
				b := qbs.V(rng.Intn(n))
				got := di.Query(a, b)
				want := qbs.OracleSPG(mat, a, b)
				if !got.Equal(want) {
					t.Fatalf("seq %d op %d: query (%d,%d) dist %d want %d\n got %v\n want %v",
						seq, op, a, b, got.Dist, want.Dist, got, want)
				}
			}
		}
		// End of sequence: full agreement with a fresh static build.
		mat := shadow.materialize()
		fresh, err := qbs.BuildIndex(mat, qbs.Options{Landmarks: di.Landmarks()})
		if err != nil {
			t.Fatalf("seq %d: fresh build: %v", seq, err)
		}
		for q := 0; q < 12; q++ {
			a := qbs.V(rng.Intn(n))
			b := qbs.V(rng.Intn(n))
			if got, want := di.Query(a, b), fresh.Query(a, b); !got.Equal(want) {
				t.Fatalf("seq %d: dynamic vs fresh (%d,%d): dist %d want %d", seq, a, b, got.Dist, want.Dist)
			}
		}
	}
}

// TestDynamicIndexEpochAndStats pins the observability surface.
func TestDynamicIndexEpochAndStats(t *testing.T) {
	g := randomSeedGraph(40, 40, rand.New(rand.NewSource(3)))
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{
		Index:           qbs.Options{NumLandmarks: 4},
		CompactFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if di.Epoch() != 0 {
		t.Fatalf("initial epoch = %d, want 0", di.Epoch())
	}
	if di.NumVertices() != 40 {
		t.Fatalf("NumVertices = %d", di.NumVertices())
	}
	before := di.NumEdges()
	changed, err := di.AddEdge(0, 39)
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch := uint64(0)
	if changed {
		wantEpoch = 1
		if di.NumEdges() != before+1 {
			t.Fatalf("NumEdges = %d, want %d", di.NumEdges(), before+1)
		}
	}
	if di.Epoch() != wantEpoch {
		t.Fatalf("epoch = %d, want %d", di.Epoch(), wantEpoch)
	}
	st := di.DynamicStats()
	if st.Inserts != wantEpoch {
		t.Fatalf("stats inserts = %d, want %d", st.Inserts, wantEpoch)
	}
	if di.SizeLabelsBytes() <= 0 {
		t.Fatal("SizeLabelsBytes not positive")
	}
}

// TestDynamicIndexConcurrent hammers lock-free reads during a stream of
// writes (run with -race in CI). Readers must always see a coherent
// snapshot; afterwards the final state must match the oracle.
func TestDynamicIndexConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 120
	g := randomSeedGraph(n, 2*n, rng)
	shadow := newShadow(g)
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{
		Index:           qbs.Options{NumLandmarks: 6},
		CompactFraction: 0.05, // force compactions mid-run
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			pairs := make([]qbs.Pair, 16)
			for {
				select {
				case <-done:
					return
				default:
				}
				u := qbs.V(rr.Intn(n))
				v := qbs.V(rr.Intn(n))
				spg := di.Query(u, v)
				if d := di.Distance(u, v); spg == nil || (spg.Dist >= 0) == false || d < 0 {
					t.Error("incoherent read")
					return
				}
				for i := range pairs {
					pairs[i] = qbs.Pair{U: qbs.V(rr.Intn(n)), V: qbs.V(rr.Intn(n))}
				}
				for _, s := range di.QueryBatch(pairs, 2) {
					if s == nil {
						t.Error("nil batch result")
						return
					}
				}
			}
		}(int64(r) + 1)
	}

	for op := 0; op < 400; op++ {
		u := qbs.V(rng.Intn(n))
		v := qbs.V(rng.Intn(n))
		if u == v {
			continue
		}
		insert := !di.HasEdge(u, v)
		var changed bool
		if insert {
			changed, err = di.AddEdge(u, v)
		} else {
			changed, err = di.RemoveEdge(u, v)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if changed {
			shadow.apply(u, v, insert)
		}
	}
	close(done)
	wg.Wait()

	mat := shadow.materialize()
	for q := 0; q < 50; q++ {
		a := qbs.V(rng.Intn(n))
		b := qbs.V(rng.Intn(n))
		got := di.Query(a, b)
		want := qbs.OracleSPG(mat, a, b)
		if !got.Equal(want) {
			t.Fatalf("after concurrent run: query (%d,%d) dist %d want %d", a, b, got.Dist, want.Dist)
		}
	}
}
