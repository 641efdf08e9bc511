package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qbs"
	"qbs/internal/graph"
)

// testServer builds a server over the diamond-with-detour fixture:
// 0-1-3, 0-2-3 (two shortest 0–3 paths) and 0-4-5-3 (a longer detour),
// plus isolated vertex 6.
func testServer(t testing.TB) *Server {
	t.Helper()
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
	ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return New(ix)
}

func get(t *testing.T, s *Server, path string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	resp := rec.Result()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp
}

func TestSPGEndpoint(t *testing.T) {
	s := testServer(t)
	var resp SPGResponse
	if r := get(t, s, "/spg?u=0&v=3", &resp); r.StatusCode != 200 {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Distance == nil || *resp.Distance != 2 {
		t.Fatalf("distance = %v", resp.Distance)
	}
	if len(resp.Edges) != 4 {
		t.Fatalf("edges = %v", resp.Edges)
	}
	if resp.NumPaths != 2 {
		t.Fatalf("num paths = %d", resp.NumPaths)
	}
	if resp.Coverage == "" {
		t.Fatal("coverage missing")
	}
}

func TestSPGDisconnected(t *testing.T) {
	s := testServer(t)
	var resp SPGResponse
	get(t, s, "/spg?u=0&v=6", &resp)
	if !resp.Disconnected || resp.Distance != nil || len(resp.Edges) != 0 {
		t.Fatalf("disconnected response: %+v", resp)
	}
}

func TestSPGBadParams(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/spg", "/spg?u=0", "/spg?u=0&v=99", "/spg?u=x&v=1", "/spg?u=-1&v=1"} {
		if r := get(t, s, path, nil); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, r.StatusCode)
		}
	}
}

func TestDistanceEndpoint(t *testing.T) {
	s := testServer(t)
	var resp DistanceResponse
	get(t, s, "/distance?u=4&v=3", &resp)
	if resp.Distance == nil || *resp.Distance != 2 {
		t.Fatalf("distance = %v", resp.Distance)
	}
	get(t, s, "/distance?u=6&v=0", &resp)
	if !resp.Disconnected {
		t.Fatal("expected disconnected")
	}
}

func TestSketchEndpoint(t *testing.T) {
	s := testServer(t)
	var resp SketchResponse
	get(t, s, "/sketch?u=1&v=2", &resp)
	if resp.DTop == nil {
		t.Fatal("d_top missing")
	}
	if len(resp.Landmarks) != 2 {
		t.Fatalf("landmarks = %v", resp.Landmarks)
	}
}

func TestPathsEndpoint(t *testing.T) {
	s := testServer(t)
	var resp PathsResponse
	get(t, s, "/paths?u=0&v=3", &resp)
	if resp.NumPaths != 2 || len(resp.Paths) != 2 || resp.Truncated {
		t.Fatalf("paths response: %+v", resp)
	}
	get(t, s, "/paths?u=0&v=3&limit=1", &resp)
	if len(resp.Paths) != 1 || !resp.Truncated {
		t.Fatalf("limit response: %+v", resp)
	}
	if r := get(t, s, "/paths?u=0&v=3&limit=0", nil); r.StatusCode != 400 {
		t.Fatal("limit=0 accepted")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	var resp StatsResponse
	get(t, s, "/stats", &resp)
	if resp.Vertices != 7 || resp.NumLandmarks != 2 || resp.LabelEntries <= 0 {
		t.Fatalf("stats: %+v", resp)
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	if r := get(t, s, "/healthz", nil); r.StatusCode != 200 {
		t.Fatalf("healthz status %d", r.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("POST", "/spg?u=0&v=3", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", rec.Result().StatusCode)
	}
}

// ---------------------------------------------------------------------
// Mutable-mode tests.

// testMutableServer serves the same diamond fixture over a dynamic
// index.
func testMutableServer(t testing.TB) (*Server, *qbs.DynamicIndex) {
	t.Helper()
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return NewMutable(di), di
}

func do(t *testing.T, s *Server, method, path, body string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	resp := rec.Result()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, path, err)
		}
	}
	return resp
}

func TestWriteEndpoints(t *testing.T) {
	s, _ := testMutableServer(t)

	// Initial epoch.
	var ep EpochResponse
	if r := do(t, s, "GET", "/epoch", "", &ep); r.StatusCode != 200 {
		t.Fatalf("epoch status %d", r.StatusCode)
	}
	if ep.Epoch != 0 || ep.Edges != 7 {
		t.Fatalf("epoch = %+v", ep)
	}

	// Insert a shortcut 1-2: distance 1-2 drops from 2 to 1.
	var er EdgeResponse
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":2}`, &er); r.StatusCode != 200 {
		t.Fatalf("post status %d", r.StatusCode)
	}
	if !er.Applied || er.Epoch != 1 || er.Edges != 8 {
		t.Fatalf("post response %+v", er)
	}
	var dr DistanceResponse
	do(t, s, "GET", "/distance?u=1&v=2", "", &dr)
	if dr.Distance == nil || *dr.Distance != 1 {
		t.Fatalf("distance after insert = %+v", dr)
	}

	// Idempotent re-insert: applied=false, epoch unchanged.
	if r := do(t, s, "POST", "/edges", `{"u":2,"v":1}`, &er); r.StatusCode != 200 {
		t.Fatalf("status %d", r.StatusCode)
	}
	if er.Applied || er.Epoch != 1 {
		t.Fatalf("re-insert response %+v", er)
	}

	// Delete both 0-3 two-hop paths: the detour 0-4-5-3 takes over.
	do(t, s, "DELETE", "/edges?u=1&v=3", "", &er)
	do(t, s, "DELETE", "/edges?u=2&v=3", "", &er)
	if !er.Applied || er.Edges != 6 {
		t.Fatalf("delete response %+v", er)
	}
	var spg SPGResponse
	do(t, s, "GET", "/spg?u=0&v=3", "", &spg)
	if spg.Distance == nil || *spg.Distance != 3 || spg.NumPaths != 1 {
		t.Fatalf("spg after deletes = %+v", spg)
	}

	// Deleting an absent edge is a no-op.
	do(t, s, "DELETE", "/edges?u=1&v=3", "", &er)
	if er.Applied {
		t.Fatal("deleting absent edge reported applied")
	}

	// Bad requests.
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":1}`, nil); r.StatusCode != 400 {
		t.Fatalf("self-loop status %d", r.StatusCode)
	}
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":99}`, nil); r.StatusCode != 400 {
		t.Fatalf("out-of-range status %d", r.StatusCode)
	}
	if r := do(t, s, "POST", "/edges", `not json`, nil); r.StatusCode != 400 {
		t.Fatalf("bad body status %d", r.StatusCode)
	}

	// Stats reports mutable mode and counters.
	var st StatsResponse
	do(t, s, "GET", "/stats", "", &st)
	if !st.Mutable || st.Dynamic == nil {
		t.Fatalf("stats = %+v", st)
	}
	if st.Dynamic.Inserts != 1 || st.Dynamic.Deletes != 2 {
		t.Fatalf("dynamic stats = %+v", st.Dynamic)
	}
}

func TestEdgesWrongMethod(t *testing.T) {
	s, _ := testMutableServer(t)
	for _, method := range []string{"PUT", "PATCH", "GET", "HEAD"} {
		req := httptest.NewRequest(method, "/edges", strings.NewReader(`{"u":1,"v":2}`))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /edges: status %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "POST, DELETE" {
			t.Fatalf("%s /edges: Allow = %q, want \"POST, DELETE\"", method, allow)
		}
	}
	// The allowed methods still work (the catch-all must not shadow them).
	var er EdgeResponse
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":2}`, &er); r.StatusCode != 200 || !er.Applied {
		t.Fatalf("POST /edges broken by catch-all: status %d applied %v", r.StatusCode, er.Applied)
	}
	if r := do(t, s, "DELETE", "/edges?u=1&v=2", "", &er); r.StatusCode != 200 || !er.Applied {
		t.Fatalf("DELETE /edges broken by catch-all: status %d applied %v", r.StatusCode, er.Applied)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// Without a durable store: 409.
	s, _ := testMutableServer(t)
	if r := do(t, s, "POST", "/checkpoint", "", nil); r.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without store: status %d, want 409", r.StatusCode)
	}

	// With one: persists and reports the epoch; the store can be reopened.
	dir := t.TempDir()
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
	di, err := qbs.CreateStore(dir, g, qbs.StoreOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewMutable(di)
	var er EdgeResponse
	do(t, ds, "POST", "/edges", `{"u":1,"v":2}`, &er)
	var cp CheckpointResponse
	if r := do(t, ds, "POST", "/checkpoint", "", &cp); r.StatusCode != 200 {
		t.Fatalf("checkpoint status %d", r.StatusCode)
	}
	if cp.Epoch != 1 {
		t.Fatalf("checkpoint epoch %d, want 1", cp.Epoch)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := qbs.OpenStore(dir, qbs.StoreOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 1 || !re.HasEdge(1, 2) {
		t.Fatalf("reopened store: epoch %d hasEdge %v", re.Epoch(), re.HasEdge(1, 2))
	}
}

func TestDynamicReadOnlyServer(t *testing.T) {
	_, di := testMutableServer(t)
	if _, err := di.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	s := NewDynamicReadOnly(di)
	var dr DistanceResponse
	if r := do(t, s, "GET", "/distance?u=0&v=3", "", &dr); r.StatusCode != 200 || dr.Distance == nil {
		t.Fatalf("read-only dynamic server query failed: %+v", dr)
	}
	// Observability stays on: the operator can confirm the recovered
	// epoch even though writes are withheld.
	var ep EpochResponse
	if r := do(t, s, "GET", "/epoch", "", &ep); r.StatusCode != 200 || ep.Epoch != 1 {
		t.Fatalf("read-only /epoch: status %d resp %+v", r.StatusCode, ep)
	}
	var st StatsResponse
	if r := do(t, s, "GET", "/stats", "", &st); r.StatusCode != 200 || st.Dynamic == nil || st.Mutable {
		t.Fatalf("read-only /stats: status %d mutable=%v dynamic=%v", r.StatusCode, st.Mutable, st.Dynamic)
	}
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":2}`, nil); r.StatusCode == 200 {
		t.Fatal("read-only dynamic server accepted a write")
	}
	if r := do(t, s, "POST", "/checkpoint", "", nil); r.StatusCode == 200 {
		t.Fatal("read-only dynamic server accepted a checkpoint")
	}
}

func TestWriteEndpointsAbsentOnImmutable(t *testing.T) {
	s := testServer(t)
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":2}`, nil); r.StatusCode == 200 {
		t.Fatal("immutable server accepted a write")
	}
	if r := do(t, s, "GET", "/epoch", "", nil); r.StatusCode == 200 {
		t.Fatal("immutable server served /epoch")
	}
}

// ---------------------------------------------------------------------
// PR 4 regression tests: /paths bounds and trivial pair, missing
// parameters, path-count saturation, directed mode.

// TestPathsLimitBounds sweeps the limit parameter across the accepted
// range's borders and junk values.
func TestPathsLimitBounds(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		limit  string
		status int
	}{
		{"0", 400},
		{"1", 200},
		{"1024", 200},
		{"1025", 400},
		{"-3", 400},
		{"junk", 400},
		{"", 200}, // absent: default 16
		{"2", 200},
	}
	for _, c := range cases {
		path := "/paths?u=0&v=3"
		if c.limit != "" {
			path += "&limit=" + c.limit
		}
		var resp PathsResponse
		r := get(t, s, path, &resp)
		if r.StatusCode != c.status {
			t.Fatalf("limit=%q: status %d, want %d", c.limit, r.StatusCode, c.status)
		}
		if c.status != 200 {
			continue
		}
		// The fixture pair has 2 shortest paths; the truncation flag must
		// agree with how many the limit let through.
		if resp.NumPaths != 2 {
			t.Fatalf("limit=%q: num paths %d, want 2", c.limit, resp.NumPaths)
		}
		wantPaths := 2
		if c.limit == "1" {
			wantPaths = 1
		}
		if len(resp.Paths) != wantPaths || resp.Truncated != (wantPaths < 2) {
			t.Fatalf("limit=%q: %d paths truncated=%v", c.limit, len(resp.Paths), resp.Truncated)
		}
	}
}

// TestPathsTrivialPair is the u == v fix: /paths must agree with /spg
// (distance 0, one path — the single vertex), not report a null
// distance and no paths.
func TestPathsTrivialPair(t *testing.T) {
	s := testServer(t)
	var resp PathsResponse
	if r := get(t, s, "/paths?u=2&v=2", &resp); r.StatusCode != 200 {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Distance == nil || *resp.Distance != 0 {
		t.Fatalf("trivial distance = %v, want 0", resp.Distance)
	}
	if resp.NumPaths != 1 || len(resp.Paths) != 1 || resp.Truncated {
		t.Fatalf("trivial paths response: %+v", resp)
	}
	if len(resp.Paths[0]) != 1 || resp.Paths[0][0] != 2 {
		t.Fatalf("trivial path = %v, want [2]", resp.Paths[0])
	}
	// /spg agrees.
	var spg SPGResponse
	get(t, s, "/spg?u=2&v=2", &spg)
	if spg.Distance == nil || *spg.Distance != 0 || spg.NumPaths != 1 {
		t.Fatalf("/spg trivial pair disagrees: %+v", spg)
	}
}

// TestMissingParameterMessage is the parseVertex fix: an absent u/v must
// be reported as missing, not as `got ""`.
func TestMissingParameterMessage(t *testing.T) {
	s := testServer(t)
	for _, c := range []struct {
		path string
		want string
	}{
		{"/spg?v=1", `missing required parameter "u"`},
		{"/spg?u=1", `missing required parameter "v"`},
		{"/distance", `missing required parameter "u"`},
		{"/paths?u=1", `missing required parameter "v"`},
	} {
		req := httptest.NewRequest("GET", c.path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.path, rec.Code)
		}
		var eb errorBody
		if err := json.NewDecoder(rec.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error != c.want {
			t.Fatalf("%s: error %q, want %q", c.path, eb.Error, c.want)
		}
		if strings.Contains(eb.Error, `got ""`) {
			t.Fatalf("%s: still reports the confusing empty got", c.path)
		}
	}
	// A malformed (present) value keeps the descriptive range message.
	req := httptest.NewRequest("GET", "/spg?u=zzz&v=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var eb errorBody
	_ = json.NewDecoder(rec.Body).Decode(&eb)
	if !strings.Contains(eb.Error, `got "zzz"`) {
		t.Fatalf("malformed value error lost its context: %q", eb.Error)
	}
}

// pathSaturationServer serves a 64-diamond chain whose source/sink pair
// has 2^64 shortest paths.
func pathSaturationServer(t *testing.T) (*Server, qbs.V, qbs.V) {
	t.Helper()
	const d = 64
	b := qbs.NewBuilder((d + 1) + 2*d)
	junction := func(i int) qbs.V { return qbs.V(i * 3) }
	for i := 0; i < d; i++ {
		j0, j1 := junction(i), junction(i+1)
		a, c := qbs.V(i*3+1), qbs.V(i*3+2)
		b.AddEdge(j0, a)
		b.AddEdge(j0, c)
		b.AddEdge(a, j1)
		b.AddEdge(c, j1)
	}
	g := b.MustBuild()
	ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	return New(ix), junction(0), junction(d)
}

// TestPathCountSaturationOverHTTP is the end-to-end overflow
// regression: 2^64 shortest paths used to surface as a negative
// num_shortest_paths with an inverted truncated flag.
func TestPathCountSaturationOverHTTP(t *testing.T) {
	s, u, v := pathSaturationServer(t)
	var spg SPGResponse
	get(t, s, fmt.Sprintf("/spg?u=%d&v=%d", u, v), &spg)
	if spg.NumPaths < 0 {
		t.Fatalf("/spg reports negative path count %d", spg.NumPaths)
	}
	if spg.NumPaths != math.MaxInt64 || !spg.NumPathsSaturated {
		t.Fatalf("/spg: count %d saturated %v, want MaxInt64 saturated", spg.NumPaths, spg.NumPathsSaturated)
	}
	var paths PathsResponse
	get(t, s, fmt.Sprintf("/paths?u=%d&v=%d&limit=4", u, v), &paths)
	if paths.NumPaths != math.MaxInt64 || !paths.NumPathsSaturated {
		t.Fatalf("/paths: count %d saturated %v", paths.NumPaths, paths.NumPathsSaturated)
	}
	if len(paths.Paths) != 4 || !paths.Truncated {
		t.Fatalf("/paths: %d paths truncated=%v, want 4 truncated", len(paths.Paths), paths.Truncated)
	}
}

// ---------------------------------------------------------------------
// Directed-mode tests.

// testDirectedServer fronts the directed diamond 0→1→3, 0→2→3 with the
// extension 3→4 and back-arc 4→0; vertex 5 is unreachable from 0.
func testDirectedServer(t testing.TB) *Server {
	t.Helper()
	b := qbs.NewDiBuilder(6)
	b.AddArc(0, 1)
	b.AddArc(0, 2)
	b.AddArc(1, 3)
	b.AddArc(2, 3)
	b.AddArc(3, 4)
	b.AddArc(4, 0)
	b.AddArc(5, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := qbs.BuildDiIndex(g, qbs.DiOptions{NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewDirected(ix)
}

func TestDirectedSPGEndpoint(t *testing.T) {
	s := testDirectedServer(t)
	var resp SPGResponse
	if r := get(t, s, "/spg?u=0&v=3", &resp); r.StatusCode != 200 {
		t.Fatalf("status %d", r.StatusCode)
	}
	if !resp.Directed {
		t.Fatal("directed flag missing")
	}
	if resp.Distance == nil || *resp.Distance != 2 || len(resp.Edges) != 4 || resp.NumPaths != 2 {
		t.Fatalf("directed diamond: %+v", resp)
	}
	// Arc orientation: every reported pair must be a real arc u→w.
	for _, a := range resp.Edges {
		if a[0] == 3 || a[1] == 0 {
			t.Fatalf("arc %v violates orientation", a)
		}
	}
	// The reverse pair takes the long way around through 4→0.
	get(t, s, "/spg?u=3&v=0", &resp)
	if resp.Distance == nil || *resp.Distance != 2 {
		t.Fatalf("reverse distance: %+v", resp)
	}
	// Unreachable direction.
	get(t, s, "/spg?u=0&v=5", &resp)
	if !resp.Disconnected {
		t.Fatalf("0→5 must be unreachable: %+v", resp)
	}
}

func TestDirectedDistanceAsymmetry(t *testing.T) {
	s := testDirectedServer(t)
	var a, b DistanceResponse
	get(t, s, "/distance?u=0&v=4", &a)
	get(t, s, "/distance?u=4&v=0", &b)
	if a.Distance == nil || b.Distance == nil {
		t.Fatal("distances missing")
	}
	if *a.Distance != 3 || *b.Distance != 1 {
		t.Fatalf("d(0→4)=%d d(4→0)=%d, want 3 and 1", *a.Distance, *b.Distance)
	}
}

func TestDirectedSketchAndStats(t *testing.T) {
	s := testDirectedServer(t)
	var sk SketchResponse
	if r := get(t, s, "/sketch?u=1&v=4", &sk); r.StatusCode != 200 {
		t.Fatalf("sketch status %d", r.StatusCode)
	}
	if len(sk.Landmarks) != 2 {
		t.Fatalf("landmarks = %v", sk.Landmarks)
	}
	var st StatsResponse
	get(t, s, "/stats", &st)
	if !st.Directed || st.Vertices != 6 || st.Edges != 7 || st.NumLandmarks != 2 {
		t.Fatalf("directed stats: %+v", st)
	}
	if st.SizeLabels != 2*6*2 {
		t.Fatalf("size labels = %d", st.SizeLabels)
	}
}

func TestDirectedServerOmitsPathsAndWrites(t *testing.T) {
	s := testDirectedServer(t)
	if r := get(t, s, "/paths?u=0&v=3", nil); r.StatusCode == 200 {
		t.Fatal("directed server served /paths")
	}
	if r := do(t, s, "POST", "/edges", `{"u":1,"v":2}`, nil); r.StatusCode == 200 {
		t.Fatal("directed server accepted a write")
	}
	if r := get(t, s, "/healthz", nil); r.StatusCode != 200 {
		t.Fatal("healthz missing in directed mode")
	}
	// Parameter validation shares the fixed missing/malformed messages.
	req := httptest.NewRequest("GET", "/spg?v=1", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var eb errorBody
	_ = json.NewDecoder(rec.Body).Decode(&eb)
	if rec.Code != 400 || eb.Error != `missing required parameter "u"` {
		t.Fatalf("directed missing param: %d %q", rec.Code, eb.Error)
	}
}

// ---------------------------------------------------------------------
// PR 5 satellites: bounded write bodies, /metrics, min_epoch.

func TestWriteBodyTooLarge(t *testing.T) {
	s, _ := testMutableServer(t)
	huge := strings.Repeat("x", (64<<10)+1)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/edges"},
		{"DELETE", "/edges?u=0&v=1"},
		{"POST", "/checkpoint"},
	} {
		resp := do(t, s, tc.method, tc.path, huge, nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with %d-byte body: status %d, want 413", tc.method, tc.path, len(huge), resp.StatusCode)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
			t.Fatalf("%s %s: 413 without the JSON error envelope (%v)", tc.method, tc.path, err)
		}
	}
	// A body just under the limit still parses (and fails on content,
	// not size).
	pad := strings.Repeat(" ", 60<<10)
	if resp := do(t, s, "POST", "/edges", pad+`{"u":1,"v":2}`, nil); resp.StatusCode != 200 {
		t.Fatalf("under-limit body: status %d", resp.StatusCode)
	}
}

// TestWriteBodyTooLargeChunked repeats the 413 check with bodies that
// carry no Content-Length (the chunked-transfer shape): the up-front
// length check cannot see them, so the bound must trip while reading.
func TestWriteBodyTooLargeChunked(t *testing.T) {
	s, _ := testMutableServer(t)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/edges"},
		{"DELETE", "/edges?u=0&v=1"},
		{"POST", "/checkpoint"},
	} {
		// Wrapping the reader hides its length from httptest.NewRequest,
		// leaving ContentLength unset as with a chunked upload. The body
		// is oversized JSON whitespace so the decoder (POST /edges) must
		// read through the limit rather than bail on a syntax error.
		body := struct{ io.Reader }{strings.NewReader(strings.Repeat(" ", (64<<10)+1) + `{"u":1,"v":2}`)}
		req := httptest.NewRequest(tc.method, tc.path, body)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s chunked oversized body: status %d, want 413", tc.method, tc.path, rec.Code)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, di := testMutableServer(t)

	do(t, s, "GET", "/distance?u=0&v=3", "", nil)
	do(t, s, "GET", "/distance?u=0&v=3", "", nil)
	do(t, s, "GET", "/distance?u=bad&v=3", "", nil) // 400 → error counter
	do(t, s, "POST", "/edges", `{"u":1,"v":2}`, nil)

	var m MetricsResponse
	if r := do(t, s, "GET", "/metrics", "", &m); r.StatusCode != 200 {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	d := m.Endpoints["/distance"]
	if d.Requests != 3 || d.Errors != 1 {
		t.Fatalf("/distance counters = %+v", d)
	}
	e := m.Endpoints["/edges"]
	if e.Requests != 1 || e.Errors != 0 {
		t.Fatalf("/edges counters = %+v", e)
	}
	if m.Epoch == nil || *m.Epoch != di.Epoch() {
		t.Fatalf("metrics epoch = %v, index at %d", m.Epoch, di.Epoch())
	}
	if m.Replication != nil {
		t.Fatal("non-replica server reported a replication section")
	}

	// With a lag provider attached (the replica shape), the replication
	// section appears, epochs-lag saturating at the provider's values.
	s.SetReplicationStatus(func() ReplicationStatus {
		return ReplicationStatus{PrimaryEpoch: di.Epoch() + 3, Epoch: di.Epoch(), LagBytes: 75}
	})
	if r := do(t, s, "GET", "/metrics", "", &m); r.StatusCode != 200 {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	if m.Replication == nil || m.Replication.LagEpochs != 3 || m.Replication.LagBytes != 75 {
		t.Fatalf("replication metrics = %+v", m.Replication)
	}
}

func TestMetricsOnImmutableAndDirected(t *testing.T) {
	s := testServer(t)
	do(t, s, "GET", "/spg?u=0&v=3", "", nil)
	var m MetricsResponse
	if r := do(t, s, "GET", "/metrics", "", &m); r.StatusCode != 200 {
		t.Fatalf("immutable /metrics status %d", r.StatusCode)
	}
	if m.Endpoints["/spg"].Requests != 1 {
		t.Fatalf("immutable /spg counters = %+v", m.Endpoints["/spg"])
	}
	if m.Epoch != nil {
		t.Fatal("immutable server reported an epoch")
	}

	ds := testDirectedServer(t)
	get(t, ds, "/distance?u=0&v=3", nil)
	var dm MetricsResponse
	if r := get(t, ds, "/metrics", &dm); r.StatusCode != 200 {
		t.Fatalf("directed /metrics status %d", r.StatusCode)
	}
	if dm.Endpoints["/distance"].Requests != 1 {
		t.Fatalf("directed /distance counters = %+v", dm.Endpoints["/distance"])
	}
}

func TestMinEpochGate(t *testing.T) {
	s, di := testMutableServer(t)

	// Advance to epoch 2.
	do(t, s, "POST", "/edges", `{"u":1,"v":2}`, nil)
	do(t, s, "DELETE", "/edges?u=1&v=2", "", nil)
	if di.Epoch() != 2 {
		t.Fatalf("setup epoch = %d", di.Epoch())
	}

	for _, path := range []string{"/spg", "/distance", "/sketch", "/paths"} {
		// Satisfied and trivially-zero min_epoch answer normally.
		for _, q := range []string{"min_epoch=0", "min_epoch=2"} {
			if r := do(t, s, "GET", path+"?u=0&v=3&"+q, "", nil); r.StatusCode != 200 {
				t.Fatalf("%s with %s: status %d", path, q, r.StatusCode)
			}
		}
		// A future epoch gets 503 + Retry-After.
		resp := do(t, s, "GET", path+"?u=0&v=3&min_epoch=3", "", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s future min_epoch: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", path)
		}
		// Junk is a 400, not a silent pass.
		if r := do(t, s, "GET", path+"?u=0&v=3&min_epoch=banana", "", nil); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s junk min_epoch: status %d, want 400", path, r.StatusCode)
		}
	}

	// Immutable servers have no epoch to wait for: any well-formed
	// min_epoch is already satisfied.
	im := testServer(t)
	if r := do(t, im, "GET", "/spg?u=0&v=3&min_epoch=999", "", nil); r.StatusCode != 200 {
		t.Fatalf("immutable min_epoch: status %d", r.StatusCode)
	}
}

// TestMinEpochValidatedOnEveryServerKind: a min_epoch that is not a
// non-negative integer is a 400 on a static, a directed and a dynamic
// server alike, on every read endpoint the kind serves, and a
// well-formed one that is already reached is a 200 on all three.
func TestMinEpochValidatedOnEveryServerKind(t *testing.T) {
	_, di := testMutableServer(t)
	for _, kind := range []struct {
		name  string
		s     *Server
		paths []string
	}{
		{"static", testServer(t), []string{"/spg", "/distance", "/sketch", "/paths"}},
		{"directed", testDirectedServer(t), []string{"/spg", "/distance", "/sketch"}},
		{"dynamic", NewDynamicReadOnly(di), []string{"/spg", "/distance", "/sketch", "/paths"}},
	} {
		for _, path := range kind.paths {
			for q, want := range map[string]int{
				"min_epoch=abc": 400, "min_epoch=-1": 400, "min_epoch=1.5": 400,
				"min_epoch=18446744073709551616": 400, "min_epoch=0": 200, "min_epoch=": 200,
			} {
				r := do(t, kind.s, "GET", path+"?u=1&v=2&"+q, "", nil)
				if r.StatusCode != want {
					t.Errorf("%s %s?%s: status %d, want %d", kind.name, path, q, r.StatusCode, want)
				}
				var e errorBody
				if want == 400 && (json.NewDecoder(r.Body).Decode(&e) != nil || !strings.Contains(e.Error, "min_epoch")) {
					t.Errorf("%s %s?%s: error %q does not name the parameter", kind.name, path, q, e.Error)
				}
			}
		}
	}
}
