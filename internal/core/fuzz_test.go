package core

import (
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/graph"
)

// FuzzQueryMatchesOracle interprets the payload as an edge stream over a
// small vertex set plus a query pair and landmark count; the QbS answer
// and distance must always match the brute-force oracle.
func FuzzQueryMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 2, 2, 3, 3, 0}, uint8(0), uint8(3), uint8(2))
	f.Add([]byte{0, 1}, uint8(0), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1))
	// A hub 0 (the one landmark) and a square 1-0-2-3: 1 and 2 meet
	// through it and around it at d_G⁻ = d⊤ = 2 (CoverageSome), which a
	// distance search bounded at d⊤−1 must not need to see.
	square := []byte{0, 1, 0, 2, 0, 5, 0, 6, 1, 3, 2, 3}
	f.Add(square, uint8(1), uint8(2), uint8(0))
	f.Add(square, uint8(1), uint8(3), uint8(0))  // adjacent
	f.Add(square, uint8(0), uint8(3), uint8(0))  // a landmark endpoint
	f.Add(square, uint8(1), uint8(10), uint8(0)) // disconnected
	f.Fuzz(func(t *testing.T, data []byte, uRaw, vRaw, kRaw uint8) {
		const n = 24
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(data) && i < 200; i += 2 {
			b.AddEdge(graph.V(data[i]%n), graph.V(data[i+1]%n))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + int(kRaw)%8
		ix, err := Build(g, Options{NumLandmarks: k})
		if err != nil {
			t.Fatal(err)
		}
		u := graph.V(uRaw % n)
		v := graph.V(vRaw % n)
		sr := NewSearcher(ix)
		got := sr.Query(u, v)
		want := bfs.OracleSPG(g, u, v)
		if !got.Equal(want) {
			t.Fatalf("SPG(%d,%d): got %v want %v (landmarks %v)", u, v, got, want, ix.Landmarks())
		}
		if d := sr.Distance(u, v); d != want.Dist {
			t.Fatalf("Distance(%d,%d) = %d, want %d (landmarks %v)", u, v, d, want.Dist, ix.Landmarks())
		}
	})
}
