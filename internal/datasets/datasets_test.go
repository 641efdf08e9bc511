package datasets

import (
	"testing"

	"qbs/internal/graph"
)

func TestAllSpecsPresent(t *testing.T) {
	keys := Keys()
	if len(keys) != 12 {
		t.Fatalf("expected 12 datasets, got %d", len(keys))
	}
	want := []string{"DO", "DB", "YT", "WK", "SK", "BA", "LJ", "OR", "TW", "FR", "UK", "CW"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("key %d = %s, want %s (table order)", i, keys[i], k)
		}
		if _, ok := Paper[k]; !ok {
			t.Fatalf("missing paper stats for %s", k)
		}
	}
}

func TestByKey(t *testing.T) {
	s, err := ByKey("TW")
	if err != nil || s.Name != "Twitter" {
		t.Fatalf("ByKey(TW) = %v, %v", s, err)
	}
	if _, err := ByKey("nope"); err == nil {
		t.Fatal("expected error for unknown key")
	}
}

func TestGenerateDeterministicAndConnected(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Key, func(t *testing.T) {
			t.Parallel()
			a := spec.Generate(0.02)
			b := spec.Generate(0.02)
			if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
				t.Fatal("generation not deterministic")
			}
			if _, count := a.ConnectedComponents(); count != 1 {
				t.Fatalf("analog not connected: %d components", count)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDegreeCharacterMatchesPaperNarrative(t *testing.T) {
	// §6.3: Friendster has evenly distributed degrees; Twitter, Youtube,
	// WikiTalk and ClueWeb09 are hub-dominated. The analogs must keep
	// that contrast (measured by the Gini coefficient of the degree
	// distribution).
	gini := func(key string) float64 {
		s, err := ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		return graph.GiniDegree(s.Generate(0.05))
	}
	fr := gini("FR")
	for _, hubby := range []string{"TW", "YT", "WK", "CW"} {
		if g := gini(hubby); g <= fr+0.1 {
			t.Fatalf("%s gini %.3f not clearly above FR %.3f", hubby, g, fr)
		}
	}
}

func TestAvgDegreeTracksTable1(t *testing.T) {
	// Analogs should land within a factor ~2 of the Table 1 average
	// degree so density-driven effects (Δ size, query cost) carry over.
	for _, spec := range All() {
		g := spec.Generate(0.05)
		got := g.AvgDegree()
		want := spec.TargetAvgDeg
		if got < want/2.5 || got > want*2.5 {
			t.Fatalf("%s: avg degree %.1f vs target %.1f", spec.Key, got, want)
		}
	}
}

func TestGenerateDirected(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Key, func(t *testing.T) {
			t.Parallel()
			g := spec.GenerateDirected(0.02)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			a := spec.GenerateDirected(0.02)
			if a.NumArcs() != g.NumArcs() {
				t.Fatal("directed generation not deterministic")
			}
			if !spec.Directed {
				// Symmetrised: every arc has its reverse.
				for _, arc := range g.Arcs()[:min(100, g.NumArcs())] {
					if !g.HasEdge(arc.To, arc.From) {
						t.Fatalf("undirected analog missing reverse arc %v", arc)
					}
				}
			}
		})
	}
}
