package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceScanEdgeList is scanEdgeList as it was before it parsed lines
// in place (sc.Text + strings.Fields per line): the accepted grammar and
// the error strings are defined by it. Its ids are dense in order of
// first appearance; referenceAscending renumbers them the way the reader
// does now.
func referenceScanEdgeList(r io.Reader) ([]Edge, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	idOf := make(map[int64]V)
	var orig []int64
	intern := func(raw int64) V {
		if v, ok := idOf[raw]; ok {
			return v
		}
		v := V(len(orig))
		idOf[raw] = v
		orig = append(orig, raw)
		return v
	}
	var pairs []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: expected two vertex ids, got %q", lineNo, line)
		}
		a, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		b, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		pairs = append(pairs, Edge{intern(a), intern(b)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return pairs, orig, nil
}

// referenceAscending renumbers a parse whose ids are dense in order of
// first appearance so that they are dense in ascending original id.
func referenceAscending(pairs []Edge, orig []int64) ([]Edge, []int64) {
	sorted := slices.Clone(orig)
	slices.Sort(sorted)
	var out []Edge
	for _, e := range pairs {
		u, _ := slices.BinarySearch(sorted, orig[e.U])
		w, _ := slices.BinarySearch(sorted, orig[e.W])
		out = append(out, Edge{V(u), V(w)})
	}
	return out, sorted
}

func TestScanEdgeListMatchesReference(t *testing.T) {
	for _, in := range []string{
		"",
		"0 1\n1 2\n",
		"# comment\n% other\n10 20\n20 10\n",
		"  # indented comment\n\t7\t8\t1.5 extra columns\r\n8 9",
		"1\n",
		"0 1\n   \n2\n",
		"a b\n",
		"1 b\n",
		"1 2\n3 0x4\n",
		"9223372036854775807 1\n",
		"9223372036854775808 1\n",
		"-3 4\n+5 -3\n",
		"1\u00a02\n",                // NBSP separates fields, as strings.Fields has it
		"\u2003 1\u3000\u0085 2 \n", // em space, ideographic space, NEL
		"1\xff 2\n",                 // invalid UTF-8 is not a space
		"1 2\xc2\n",
		"12345678901234567890123456789012345678901234567890 1\n",
		"5 5\n5 5\n",
	} {
		wantPairs, wantOrig, wantErr := referenceScanEdgeList(strings.NewReader(in))
		if wantErr == nil {
			wantPairs, wantOrig = referenceAscending(wantPairs, wantOrig)
		}
		pairs, orig, err := scanEdgeList(strings.NewReader(in), math.MaxInt32)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("input %q: error %v, reference %v", in, err, wantErr)
		}
		if !slices.Equal(pairs, wantPairs) || !slices.Equal(orig, wantOrig) {
			t.Errorf("input %q: parsed %v %v, reference %v %v", in, pairs, orig, wantPairs, wantOrig)
		}
	}
}

// Past the largest dense id the reader says so, instead of wrapping V
// negative and failing later as an out-of-range edge.
func TestScanEdgeListTooManyIDs(t *testing.T) {
	const in = "10 20\n20 30\n30 10\n"
	if _, orig, err := scanEdgeList(strings.NewReader(in), 2); err != nil || len(orig) != 3 {
		t.Fatalf("3 ids under a largest id of 2: %v, %v", orig, err)
	}
	_, _, err := scanEdgeList(strings.NewReader(in), 1)
	if err == nil || err.Error() != "graph: line 2: too many distinct vertex ids (more than 2)" {
		t.Fatalf("3 ids under a largest id of 1: %v", err)
	}
}

func TestScanEdgeListAllocsDoNotGrowWithLines(t *testing.T) {
	dump := func(lines int) []byte {
		var buf bytes.Buffer
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&buf, "%d\t%d\n", i%50, (i*7+1)%50)
		}
		return buf.Bytes()
	}
	allocs := func(in []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := scanEdgeList(bytes.NewReader(in), math.MaxInt32); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Both inputs intern the same 50 ids; the longer one only grows the
	// pairs slice (a few doublings), not two objects per line.
	short, long := allocs(dump(1000)), allocs(dump(21000))
	if long-short > 20 {
		t.Fatalf("allocations grow with the line count: %.0f for 1000 lines, %.0f for 21000", short, long)
	}
}

// readDirected reads text with the directed edge-list reader and
// returns its arcs and the original ids of its dense vertices.
func readDirected(t *testing.T, text string) ([]Arc, []int64) {
	t.Helper()
	g, orig, err := ReadEdgeList(strings.NewReader(text), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != len(orig) {
		t.Fatalf("%d vertices for %d original ids", g.NumVertices(), len(orig))
	}
	return g.Arcs(), orig
}

// TestReadDirectedEdgeList: the directed reader keeps each line's
// orientation (no reverse arc is added), densifies ids in ascending
// order of the original id as ReadEdgeList does, and drops self-loops
// and repeated arcs while keeping their vertices.
func TestReadDirectedEdgeList(t *testing.T) {
	for _, tc := range []struct {
		name, text string
		arcs       []Arc
		orig       []int64
	}{
		{"not symmetrised", "1 2\n2 3\n", []Arc{{0, 1}, {1, 2}}, []int64{1, 2, 3}},
		{"both orientations are two arcs", "4 9\n9 4\n", []Arc{{0, 1}, {1, 0}}, []int64{4, 9}},
		{"ascending ids", "30 10\n10 20\n", []Arc{{0, 1}, {2, 0}}, []int64{10, 20, 30}},
		{"negative and sparse ids", "-5 100\n100 7\n", []Arc{{0, 2}, {2, 1}}, []int64{-5, 7, 100}},
		{"self-loops dropped", "5 5\n5 7\n", []Arc{{0, 1}}, []int64{5, 7}},
		{"a self-loop's vertex is kept", "4 4\n1 2\n", []Arc{{0, 1}}, []int64{1, 2, 4}},
		{"duplicate arcs dropped", "5 7\n5 7\n7 5\n5 7\n", []Arc{{0, 1}, {1, 0}}, []int64{5, 7}},
		{"comments and blank lines", "# c\n% d\n\n  3\t1  \n", []Arc{{1, 0}}, []int64{1, 3}},
		{"empty", "", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arcs, orig := readDirected(t, tc.text)
			if !slices.Equal(arcs, tc.arcs) || !slices.Equal(orig, tc.orig) {
				t.Fatalf("arcs %v ids %v, want arcs %v ids %v", arcs, orig, tc.arcs, tc.orig)
			}
		})
	}
}
