package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// viaEncodingJSON is the encoder the hot bodies used to go through.
func viaEncodingJSON(t testing.TB, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSPGEncoding holds appendSPGResponse to encoding/json's bytes for
// r, handing it r.Edges as the answer's edge list: each endpoint by its
// first position in r.Vertices, which holds every endpoint.
func checkSPGEncoding(t testing.TB, r *SPGResponse) {
	t.Helper()
	var edges [][2]int32
	for _, e := range r.Edges {
		a, b := slices.Index(r.Vertices, e[0]), slices.Index(r.Vertices, e[1])
		if a < 0 || b < 0 {
			t.Fatalf("edge %v has an endpoint outside the vertex list %v", e, r.Vertices)
		}
		edges = append(edges, [2]int32{int32(a), int32(b)})
	}
	prefix := []byte("kept")
	stale := []int32{-1, 1 << 30} // offsets left by an earlier body
	got, _ := appendSPGResponse(prefix, r, edges, stale)
	if want := append([]byte("kept"), viaEncodingJSON(t, r)...); !bytes.Equal(got, want) {
		t.Fatalf("append encoder\n got %s\nwant %s", got, want)
	}
}

func checkDistanceEncoding(t testing.TB, r *DistanceResponse) {
	t.Helper()
	if got, want := appendDistanceResponse(nil, r), viaEncodingJSON(t, r); !bytes.Equal(got, want) {
		t.Fatalf("append encoder\n got %s\nwant %s", got, want)
	}
}

// spgResponseFrom builds a response out of raw bytes: which optional
// fields are present comes from flags, every number from data.
func spgResponseFrom(flags uint8, coverage uint8, count int64, data []byte) SPGResponse {
	next := func() int32 {
		if len(data) < 4 {
			return int32(len(data)) - 2
		}
		v := int32(data[0]) | int32(data[1])<<8 | int32(data[2])<<16 | int32(data[3])<<24
		data = data[4:]
		return v
	}
	r := SPGResponse{
		Source: next(), Target: next(),
		NumPaths:          count,
		NumPathsSaturated: flags&1 != 0,
		ArcsScanned:       int64(next()) << (flags >> 6 * 8),
		Coverage:          []string{"all", "some", "none", "trivial", "directed"}[coverage%5],
		Disconnected:      flags&2 != 0,
		Directed:          flags&4 != 0,
	}
	if flags&8 != 0 {
		d := next()
		r.Distance = &d
	}
	if flags&16 != 0 {
		d := next()
		r.DTop = &d
	}
	if flags&32 != 0 {
		r.Vertices = []int32{} // empty, not nil: [] on the wire
		for n := int(next()) & 7; n > 0; n-- {
			r.Vertices = append(r.Vertices, next())
		}
		// Edges join listed vertices, as an answer's do.
		for len(data) >= 8 && len(r.Vertices) > 0 {
			at := func() int32 { return r.Vertices[uint32(next())%uint32(len(r.Vertices))] }
			r.Edges = append(r.Edges, [2]int32{at(), at()})
		}
	}
	return r
}

// TestAppendEncoderMatchesEncodingJSON: the hand-written bodies are the
// bytes encoding/json writes for the same structs, across null and
// present distance and d_top, nil and empty and long lists, the
// omitempty fields, both list kinds and the extreme numbers.
func TestAppendEncoderMatchesEncodingJSON(t *testing.T) {
	minD, maxD := int32(math.MinInt32), int32(math.MaxInt32)
	for _, r := range []SPGResponse{
		{},
		{Source: 1, Target: 2, Disconnected: true, Coverage: "trivial"},
		{Source: 7, Target: 7, Distance: new(int32), Vertices: []int32{7}, NumPaths: 1, Coverage: "trivial"},
		{Distance: &maxD, DTop: &minD, Vertices: []int32{minD, maxD}, Edges: [][2]int32{{minD, maxD}, {maxD, minD}}, NumPaths: math.MaxInt64,
			NumPathsSaturated: true, ArcsScanned: math.MinInt64, Coverage: "directed", Directed: true},
		{Distance: &minD, Vertices: []int32{0, 1, 2}, Edges: [][2]int32{{0, 1}, {1, 2}}, NumPaths: -1, Coverage: "some"},
	} {
		checkSPGEncoding(t, &r)
	}
	for _, r := range []DistanceResponse{
		{},
		{Source: 3, Target: 4, Disconnected: true},
		{Source: minD, Target: maxD, Distance: &minD},
	} {
		checkDistanceEncoding(t, &r)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		r := spgResponseFrom(uint8(rng.Intn(256)), uint8(rng.Intn(5)), rng.Int63()-rng.Int63(), data)
		checkSPGEncoding(t, &r)
		checkDistanceEncoding(t, &DistanceResponse{Source: r.Source, Target: r.Target, Distance: r.Distance, Disconnected: r.Disconnected})
	}
}

func FuzzAppendEncoder(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(0), []byte{})
	f.Add(uint8(8|16|32), uint8(1), int64(2), []byte{0, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add(uint8(1|4|8|32|192), uint8(4), int64(math.MaxInt64), []byte{255, 255, 255, 255, 0, 0, 0, 128, 255, 255, 255, 127})
	f.Fuzz(func(t *testing.T, flags, coverage uint8, count int64, data []byte) {
		r := spgResponseFrom(flags, coverage, count, data)
		checkSPGEncoding(t, &r)
		checkDistanceEncoding(t, &DistanceResponse{Source: r.Source, Target: r.Target, Distance: r.Distance, Disconnected: r.Disconnected})
	})
}
