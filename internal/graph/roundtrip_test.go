package graph_test

import (
	"bytes"
	"slices"
	"testing"

	"qbs/internal/datasets"
	"qbs/internal/graph"
)

// TestEdgeListRoundTripIsIdentity: an edge list is the one graph file,
// so a graph of either orientation with no isolated vertex comes back
// from WriteEdgeList and ReadEdgeList as itself — the same CSR bytes,
// every vertex under its own id — and `qbs -graph` over a written analog answers the pairs
// `qbs -dataset` answers.
func TestEdgeListRoundTripIsIdentity(t *testing.T) {
	largest := func(g *graph.Graph) *graph.Graph {
		lc, _ := g.LargestComponent()
		return lc
	}
	graphs := map[string]*graph.Graph{
		"Grid(10,10)":          graph.Grid(10, 10),
		"BarabasiAlbert(300)":  largest(graph.BarabasiAlbert(300, 3, 11)),
		"ErdosRenyi(400, 900)": largest(graph.ErdosRenyi(400, 900, 5)),
	}
	for _, spec := range datasets.All() {
		graphs[spec.Key+"×0.1"] = spec.Generate(0.1)
	}
	graphs["AsDirected(Grid(6,7))"] = graph.AsDirected(graph.Grid(6, 7))
	graphs["DirectedScaleFree(300)"] = graph.DirectedScaleFree(300, 2, 7)
	for name, g := range graphs {
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		re, orig, err := graph.ReadEdgeList(&buf, g.Directed())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantOff, wantAdj, wantInOff, wantIn := g.CSR()
		gotOff, gotAdj, gotInOff, gotIn := re.CSR()
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) ||
			!slices.Equal(gotInOff, wantInOff) || !slices.Equal(gotIn, wantIn) {
			t.Errorf("%s: read back a different CSR (|V| %d → %d, arcs %d → %d)",
				name, g.NumVertices(), re.NumVertices(), g.NumArcs(), re.NumArcs())
			continue
		}
		for i, id := range orig {
			if id != int64(i) {
				t.Errorf("%s: dense id %d read from original id %d", name, i, id)
				break
			}
		}
	}
}
