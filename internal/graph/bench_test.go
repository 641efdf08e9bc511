package graph

import (
	"math/rand"
	"testing"
)

// BenchmarkBuildCSR builds the FR analog's shape at scale 0.5 (30 k
// vertices, 810 k pending edges in generator order, a few of them
// duplicates) — the constructor alone, without the sampling in front.
func BenchmarkBuildCSR(b *testing.B) {
	const n, m = 30000, 30000 * 27
	rng := rand.New(rand.NewSource(1))
	bl := NewBuilder(n)
	for bl.NumPendingEdges() < m {
		bl.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := bl.MustBuild(); g.NumVertices() != n {
			b.Fatal("wrong graph")
		}
	}
}
