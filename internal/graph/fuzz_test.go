package graph

import (
	"bytes"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to the text parser: it must
// never panic, and anything it accepts must round-trip to a valid graph.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# comment\n% other\n10 20\n20 10\n"))
	f.Add([]byte(""))
	f.Add([]byte("1\n"))
	f.Add([]byte("a b\n"))
	f.Add([]byte("9223372036854775807 1\n"))
	f.Add([]byte("-3 4\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, orig, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph invalid: %v", err)
		}
		if len(orig) != g.NumVertices() {
			t.Fatalf("id mapping length %d != |V| %d", len(orig), g.NumVertices())
		}
	})
}

// FuzzBuilder interprets the fuzz payload as a vertex count (first byte,
// 0-39) and an edge stream with endpoints in [-4, 43], so streams with
// out-of-range endpoints occur: Build and DiBuilder.Build must agree
// with the sort-based reference builders element for element, error
// string included, and what they accept must be a valid CSR.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{16, 4, 5, 5, 6, 6, 4})
	f.Add([]byte{16, 9, 9, 9, 9})                                     // self-loops only
	f.Add([]byte{})                                                   // n = 0
	f.Add([]byte{1})                                                  // n = 1
	f.Add([]byte{30, 5, 6, 5, 6, 6, 5, 6, 5})                         // duplicates and reversed duplicates
	f.Add([]byte{39, 10, 11})                                         // isolated vertices
	f.Add([]byte{8, 4, 5, 4, 6, 4, 7, 4, 8, 4, 9, 4, 10, 4, 11})      // star of degree n-1
	f.Add([]byte{8, 4, 5, 12, 5})                                     // endpoint = n
	f.Add([]byte{8, 4, 5, 0, 5, 6, 47})                               // negative endpoint first
	f.Add([]byte{0, 4, 5})                                            // an edge over no vertices
	f.Add([]byte{20, 23, 4, 22, 5, 21, 6, 20, 7, 4, 23, 5, 22, 6, 6}) // lists arrive unsorted
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0]%40), data[1:]
		}
		var pairs []Edge
		for i := 0; i+1 < len(data); i += 2 {
			pairs = append(pairs, Edge{V(data[i]%48) - 4, V(data[i+1]%48) - 4})
		}
		checkAgainstReference(t, n, pairs)
		if g, err := FromEdges(n, pairs); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		arcs := make([]Arc, len(pairs))
		for i, p := range pairs {
			arcs[i] = Arc{p.U, p.W}
		}
		if g, err := DiFromArcs(n, arcs); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
