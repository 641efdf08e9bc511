package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadHandlers throws arbitrary raw query strings at every read
// endpoint that parses one, on a static, a directed and a read-only
// dynamic server. Whatever the bytes: no panic; the status is 200 or a
// 4xx — or 503, the documented answer of a dynamic server to a
// min_epoch it has not reached; a 200 body is valid JSON and every other
// body is an errorBody; a
// min_epoch that is not a non-negative integer is a 400 on the query
// endpoints of all three kinds.
func FuzzReadHandlers(f *testing.F) {
	for _, seed := range []string{
		"u=0&v=3", "u=3&v=0&min_epoch=1", "u=0&v=3&limit=2", "n=1&min_ms=0.5&error=1",
		"u=9223372036854775808", "u=-1", "v=", "limit=0", "min_epoch=-1",
		"min_epoch=18446744073709551616", "min_ms=NaN", "n=1e3",
		"u=0&v=3&min_epoch=99", "u=0&u=1&v=2;v=3", "u=%zz&v=%00", "min_ms=%2BInf&n=1024",
		"n=abc", "min_level=loud", "component=%00", "n=5&min_level=warn&component=http",
		"u=1&v=2&min_epoch=abc",
	} {
		f.Add(seed)
	}
	_, di := testMutableServer(f)
	if _, err := di.AddEdge(1, 2); err != nil {
		f.Fatal(err)
	}
	reads := []string{"/spg", "/distance", "/sketch", "/paths", "/debug/traces", "/debug/slowlog", "/debug/logs"}
	servers := []struct {
		name  string
		s     *Server
		paths []string
	}{
		{"static", testServer(f), reads},
		{"directed", testDirectedServer(f), append(reads[:3:3], reads[4:]...)}, // no /paths in directed mode
		{"dynamic-readonly", NewDynamicReadOnly(di), reads},
	}
	for _, sv := range servers {
		isolatedTracer(sv.s)
		sv.s.SetSlowLogThreshold(0) // so the debug listings have entries to filter
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		for _, sv := range servers {
			for _, path := range sv.paths {
				// Built by hand: httptest.NewRequest refuses most byte strings.
				req := &http.Request{Method: "GET", URL: &url.URL{Path: path, RawQuery: rawQuery}, Header: http.Header{}}
				rec := httptest.NewRecorder()
				sv.s.ServeHTTP(rec, req)
				code, body := rec.Code, rec.Body.Bytes()
				if raw := req.URL.Query().Get("min_epoch"); raw != "" && !strings.HasPrefix(path, "/debug/") {
					if _, err := strconv.ParseUint(raw, 10, 64); err != nil && code != http.StatusBadRequest {
						t.Fatalf("%s %s?%q: status %d for a malformed min_epoch, want 400", sv.name, path, rawQuery, code)
					}
				}
				switch {
				case code == http.StatusOK:
					if !json.Valid(body) {
						t.Fatalf("%s %s?%q: 200 with a body that is not JSON: %q", sv.name, path, rawQuery, body)
					}
					continue
				case code >= 400 && code < 500:
				case code == http.StatusServiceUnavailable && sv.s.dyn != nil && req.URL.Query().Has("min_epoch"):
				default:
					t.Fatalf("%s %s?%q: status %d: %q", sv.name, path, rawQuery, code, body)
				}
				var e errorBody
				if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
					t.Fatalf("%s %s?%q: status %d with a body that is not an errorBody: %q", sv.name, path, rawQuery, code, body)
				}
			}
		}
	})
}

// TestQueryGetMatchesParseQuery: the handlers' in-place argument reader
// returns what url.ParseQuery(q).Get(k) does, on random queries over an
// alphabet of separators, escapes and broken escapes, for keys that are
// present, repeated, empty-valued, escaped or absent.
func TestQueryGetMatchesParseQuery(t *testing.T) {
	const alphabet = "uvkmin_epoch=&;%+2fG5 #?"
	keys := []string{"u", "v", "min_epoch", "k", "uv", "u v", "=", "&"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		q := string(b)
		vs, _ := url.ParseQuery(q)
		for _, k := range keys {
			if got, want := queryGet(q, k), vs.Get(k); got != want {
				t.Fatalf("queryGet(%q, %q) = %q, url.ParseQuery gives %q", q, k, got, want)
			}
		}
	}
}
