package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"qbs"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// noDistanceBackend fails the test when a handler asks the index for a
// distance. /spg and /paths answer one query; anything they report about
// the answer must come out of that answer, not from later searches that
// may resolve a later epoch.
type noDistanceBackend struct {
	backend
	t *testing.T
}

func (b noDistanceBackend) DistanceStats(u, v qbs.V) qbs.QueryStats {
	b.t.Errorf("handler consulted the index after the query: DistanceStats(%d,%d)", u, v)
	return b.backend.DistanceStats(u, v)
}

func TestSPGAndPathsNeverConsultIndexAfterQuery(t *testing.T) {
	g := graph.Grid(6, 6)
	ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 3})
	if err != nil {
		t.Fatal(err)
	}
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 3}})
	if err != nil {
		t.Fatal(err)
	}
	static := &Server{b: noDistanceBackend{staticBackend{ix}, t}, static: ix}
	mutable := &Server{b: noDistanceBackend{di, t}, dyn: di, writable: true}
	for name, s := range map[string]*Server{"static": static, "mutable": mutable} {
		s.routes()
		var spg SPGResponse
		if r := get(t, s, "/spg?u=0&v=35", &spg); r.StatusCode != 200 {
			t.Fatalf("%s /spg: status %d", name, r.StatusCode)
		}
		// Corner to corner of a 6x6 grid: every vertex, binomial(10,5) paths.
		if len(spg.Vertices) != 36 || len(spg.Edges) != 60 || spg.NumPaths != 252 {
			t.Fatalf("%s /spg: %d vertices, %d edges, %d paths", name, len(spg.Vertices), len(spg.Edges), spg.NumPaths)
		}
		var paths PathsResponse
		if r := get(t, s, "/paths?u=0&v=35&limit=300", &paths); r.StatusCode != 200 {
			t.Fatalf("%s /paths: status %d", name, r.StatusCode)
		}
		if paths.NumPaths != 252 || len(paths.Paths) != 252 || paths.Truncated {
			t.Fatalf("%s /paths: %d counted, %d listed, truncated %v", name, paths.NumPaths, len(paths.Paths), paths.Truncated)
		}
	}
}

// TestSPGNeverBlendsEpochs hammers /spg on a mutable server while a
// writer flips an edge that lies on a shortest path. With the shortcut
// 0-2 the pair (0,5) is two hops apart with one path; without it, three
// hops with two. Every reply must be the oracle answer of one of the two
// graphs in full — distance, edge set and path count — never the edges
// of one layered by the distances of the other.
func TestSPGNeverBlendsEpochs(t *testing.T) {
	base := []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 5},
		{U: 0, W: 3}, {U: 3, W: 4}, {U: 4, W: 5},
	}
	type answer struct {
		dist  int32
		edges [][2]int32
		paths int64
	}
	oracle := func(edges []graph.Edge, paths int64) answer {
		spg := qbs.OracleSPG(graph.MustFromEdges(6, edges), 0, 5)
		a := answer{dist: spg.Dist, paths: paths}
		for _, e := range spg.Edges() {
			a.edges = append(a.edges, [2]int32{e.U, e.W})
		}
		return a
	}
	without := oracle(base, 2)
	with := oracle(append(slices.Clone(base), graph.Edge{U: 0, W: 2}), 1)

	di, err := qbs.BuildDynamicIndex(graph.MustFromEdges(6, base), qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewMutable(di)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/spg?u=0&v=5", nil))
				var got SPGResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Distance == nil {
					t.Errorf("reply %q: %v", rec.Body, err)
					return
				}
				matches := func(a answer) bool {
					return *got.Distance == a.dist && got.NumPaths == a.paths && slices.Equal(got.Edges, a.edges)
				}
				if !matches(with) && !matches(without) {
					t.Errorf("reply is the answer of neither graph: %s", rec.Body)
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		method, path, body := "POST", "/edges", `{"u":0,"v":2}`
		if i%2 == 1 {
			method, path, body = "DELETE", "/edges?u=0&v=2", ""
		}
		if r := do(t, s, method, path, body, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("write %d: status %d", i, r.StatusCode)
		}
	}
	close(done)
	readers.Wait()
}

// discard is a ResponseWriter that keeps nothing, so that what
// AllocsPerRun counts is the handler's.
type discard struct{ header http.Header }

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// TestWarmSPGHandlerAllocs: a warm /spg costs a fixed number of
// allocations whatever the size of the answer — result, layering and
// body all live in pooled scratch, and the body is appended to, never
// boxed — namely the 6 it measures: one more than a warm /distance
// (the Content-Length string of a body past 99 bytes), which shares the
// middleware, the argument reader and the encoder and is itself held to
// its 5 (the trace ID, the wrapper that reads the reply's status, and
// the value slices of three reply headers: a writer other than the
// loop's keeps none of these for the handler).
func TestWarmSPGHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := graph.Grid(15, 15)
	ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 4}})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := qbs.BuildIndex(graph.AsDirected(g), qbs.Options{NumLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Server{"static": New(ix), "mutable": NewMutable(dyn), "directed": New(dix)} {
		// A tracer of its own, retaining nothing: the default one is shared
		// with tests that lower its thresholds, and a retained trace is
		// copied out, one allocation per span.
		tracer := obs.NewTracer(1)
		tracer.SetSlowThreshold(time.Hour)
		s.SetTracer(tracer)
		allocs := func(path string, wantVertices int) float64 {
			var resp SPGResponse
			get(t, s, path, &resp)
			if wantVertices > 0 && len(resp.Vertices) != wantVertices {
				t.Fatalf("%s %s: %d vertices, want %d", name, path, len(resp.Vertices), wantVertices)
			}
			req := httptest.NewRequest("GET", path, nil)
			w := &discard{header: http.Header{}}
			return testing.AllocsPerRun(200, func() {
				clear(w.header)
				s.ServeHTTP(w, req)
			})
		}
		large := allocs("/spg?u=0&v=224", 225)  // corner to corner: the whole grid, 420 edges
		medium := allocs("/spg?u=0&v=160", 121) // an 11x11 corner of it: 220 edges
		small := allocs("/spg?u=0&v=2", 3)      // along the top row: one path
		distance := allocs("/distance?u=0&v=224", 0)
		if small != large || medium != large {
			t.Errorf("%s: warm /spg allocates %v for a 3-vertex answer, %v for a 121-vertex one and %v for a 225-vertex one", name, small, medium, large)
		}
		if large > 6 {
			t.Errorf("%s: warm /spg allocates %v, want at most 6", name, large)
		}
		if distance > 5 {
			t.Errorf("%s: warm /distance allocates %v, want at most 5", name, distance)
		}
		t.Logf("%s: /spg %v allocs, /distance %v", name, large, distance)
	}
}

// BenchmarkAnswerAssembly is what /spg does between the kernel's return
// and the write — the handler's own assembleSPG — on answers handed over
// unordered. Refilling the result, canonical sort, layering, path count
// and encoding are all in the loop; ns/op over the edge count is the
// per-edge cost of an answer.
//
// The edges= rows are a chain of diamonds (4 edges each; a 5-edge path
// for the smallest) over consecutive ids, every edge handed over twice,
// except edges=200x1.14: the 200-edge chain at the kernel's duplication
// on the YT analog, 1.142 pairs per distinct edge over 3 000 uniform
// pairs.
// The fr-tail row is shaped like the answers that make the FR
// workload's /spg tail: a distance-4 answer of 220 edges over 150
// vertices, levels of 1, 38, 72, 38 and 1, with ids spread over 120 000
// vertices as the benchmark graph's are, every edge handed over once,
// as the kernel emits them on FR (1.001 pairs per distinct edge over
// 3 000 uniform pairs of the FR analog).
func BenchmarkAnswerAssembly(b *testing.B) {
	type answer struct {
		pairs    []qbs.Arc
		u, v     qbs.V
		dist     int32
		vertices int
		extra    int // the first extra edges are handed over twice
	}
	chain := func(edges int) answer {
		var pairs []qbs.Arc
		last := qbs.V(0)
		if edges < 8 {
			for ; int(last) < edges; last++ {
				pairs = append(pairs, qbs.Arc{From: last, To: last + 1})
			}
			return answer{pairs, 0, last, int32(last), int(last) + 1, len(pairs)}
		}
		for ; len(pairs) < edges; last += 3 {
			pairs = append(pairs,
				qbs.Arc{From: last, To: last + 1}, qbs.Arc{From: last, To: last + 2},
				qbs.Arc{From: last + 1, To: last + 3}, qbs.Arc{From: last + 2, To: last + 3})
		}
		return answer{pairs, 0, last, int32(last) / 3 * 2, int(last) + 1, len(pairs)}
	}
	frTail := func() answer {
		rng := rand.New(rand.NewSource(4))
		ids := rng.Perm(120000)
		level := func(n int) []qbs.V {
			vs := make([]qbs.V, n)
			for i := range vs {
				vs[i], ids = qbs.V(ids[0]), ids[1:]
			}
			return vs
		}
		u, l1, l2, l3, v := level(1)[0], level(38), level(72), level(38), level(1)[0]
		var pairs []qbs.Arc
		for i := range l1 {
			pairs = append(pairs, qbs.Arc{From: u, To: l1[i]}, qbs.Arc{From: l3[i], To: v})
		}
		for i, y := range l2 {
			pairs = append(pairs, qbs.Arc{From: l1[i%len(l1)], To: y}, qbs.Arc{From: y, To: l3[i*7%len(l3)]})
		}
		return answer{pairs, u, v, 4, 150, 0}
	}
	for _, row := range []struct {
		name string
		a    answer
	}{
		{"edges=5", chain(5)},
		{"edges=200", chain(200)},
		{"edges=200x1.14", func() answer { a := chain(200); a.extra = 28; return a }()},
		{"edges=2000", chain(2000)},
		{"fr-tail", frTail()},
	} {
		b.Run(row.name, func(b *testing.B) {
			a := row.a
			edges := len(a.pairs)
			pairs := append(slices.Clone(a.pairs), a.pairs[:a.extra]...)
			rand.New(rand.NewSource(1)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			var sc scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.spg.Reset(a.u, a.v)
				sc.spg.Fill(false, a.dist, pairs)
				sc.assembleSPG(SPGResponse{Source: a.u, Target: a.v, Coverage: "some"}, a.dist)
			}
			if n, vertices := sc.spg.NumEdges(), len(sc.spg.Vertices()); n != edges || vertices != a.vertices || len(sc.buf) < 16*edges/2 {
				b.Fatalf("%d edges, %d vertices, %d bytes; want %d edges, %d vertices", n, vertices, len(sc.buf), edges, a.vertices)
			}
			if paths, _ := sc.spg.CountPaths(); paths == 0 {
				b.Fatal("no path from source to target")
			}
		})
	}
}
