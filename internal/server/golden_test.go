package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qbs"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current handlers")

// goldenCase is one request of a golden transcript.
type goldenCase struct{ method, path, body string }

func gets(paths ...string) []goldenCase {
	cases := make([]goldenCase, len(paths))
	for i, p := range paths {
		cases[i] = goldenCase{method: "GET", path: p}
	}
	return cases
}

// readCases are the read requests every undirected fixture answers: the
// trivial pair, a disconnected pair, the two-path diamond, limit
// truncation, and each parameter error.
var readCases = gets(
	"/spg?u=0&v=3", "/spg?u=3&v=0", "/spg?u=2&v=2", "/spg?u=0&v=6", "/spg?u=4&v=3",
	"/spg?v=1", "/spg?u=0&v=99", "/spg?u=zzz&v=1", "/spg?u=0&v=3&min_epoch=banana",
	"/distance?u=0&v=3", "/distance?u=2&v=2", "/distance?u=6&v=0", "/distance", "/distance?u=1&v=-4",
	"/paths?u=0&v=3", "/paths?u=0&v=3&limit=1", "/paths?u=2&v=2", "/paths?u=0&v=6", "/paths?u=0&v=5",
	"/paths?u=0&v=3&limit=0", "/paths?u=1",
	"/sketch?u=1&v=2", "/sketch?u=1",
)

// transcript renders every case's status, Content-Type and body. The
// body is written raw and the next case's header follows it directly,
// so a missing trailing newline, or null where [] was, changes the
// bytes of the file.
func transcript(s *Server, cases []goldenCase) []byte {
	var out bytes.Buffer
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "--- %s %s %s\n%d %s\n", c.method, c.path, c.body, rec.Code, rec.Header().Get("Content-Type"))
		out.Write(rec.Body.Bytes())
	}
	return out.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d:\n got %q\nwant %q\n(go test ./internal/server -run TestGolden -update rewrites the files)", path, i+1, g, w)
		}
	}
}

// TestGoldenResponses pins status, Content-Type and body of /spg,
// /distance, /paths and /sketch byte for byte in all four server modes.
func TestGoldenResponses(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		checkGolden(t, "static", transcript(testServer(t), readCases))
	})
	t.Run("mutable", func(t *testing.T) {
		s, _ := testMutableServer(t)
		cases := append([]goldenCase(nil), readCases...)
		// A shortcut 1-2, then both two-hop routes cut: the detour takes
		// over and the same reads answer a different epoch.
		cases = append(cases, goldenCase{"POST", "/edges", `{"u":1,"v":2}`})
		cases = append(cases, gets("/spg?u=1&v=2&min_epoch=1", "/spg?u=0&v=3&min_epoch=2", "/paths?u=0&v=3&min_epoch=7")...)
		cases = append(cases,
			goldenCase{"DELETE", "/edges?u=1&v=3", ""},
			goldenCase{"DELETE", "/edges?u=2&v=3", ""},
			goldenCase{"DELETE", "/edges?u=2&v=3", ""},
			goldenCase{"DELETE", "/edges?u=2", ""},
			goldenCase{"DELETE", "/edges?u=2&v=77", ""},
		)
		cases = append(cases, gets("/spg?u=0&v=3", "/paths?u=0&v=3", "/distance?u=0&v=3&min_epoch=3", "/distance?u=0&v=3&min_epoch=4")...)
		checkGolden(t, "mutable", transcript(s, cases))
	})
	t.Run("dynamic_readonly", func(t *testing.T) {
		_, di := testMutableServer(t)
		if _, err := di.AddEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		cases := append([]goldenCase(nil), readCases...)
		cases = append(cases, gets("/spg?u=1&v=2&min_epoch=1", "/spg?u=1&v=2&min_epoch=2")...)
		checkGolden(t, "dynamic_readonly", transcript(NewDynamicReadOnly(di), cases))
	})
	t.Run("directed", func(t *testing.T) {
		checkGolden(t, "directed", transcript(testDirectedServer(t), gets(
			"/spg?u=0&v=3", "/spg?u=3&v=0", "/spg?u=0&v=4", "/spg?u=2&v=2", "/spg?u=0&v=5",
			"/spg?v=1", "/spg?u=0&v=6", "/spg?u=0&v=3&min_epoch=banana",
			"/distance?u=0&v=4", "/distance?u=4&v=0", "/distance?u=1&v=1", "/distance?u=0&v=5", "/distance?u=x&v=0",
			"/sketch?u=1&v=4", "/sketch?v=4",
		)))
	})
	t.Run("saturated", func(t *testing.T) {
		s, u, v := pathSaturationServer(t)
		mid := qbs.V(3 * 62)
		checkGolden(t, "saturated", transcript(s, gets(
			fmt.Sprintf("/spg?u=%d&v=%d", u, v),
			fmt.Sprintf("/paths?u=%d&v=%d&limit=4", u, v),
			fmt.Sprintf("/spg?u=%d&v=%d", u, mid),
			fmt.Sprintf("/paths?u=%d&v=%d&limit=2", u, mid),
		)))
	})
}
