package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// A graph file is a text edge list: one "u w" pair per line, '#' or '%'
// comments — the format of the SNAP and KONECT dumps the paper's
// datasets ship in. Vertex ids may be sparse; they are densified on
// load. The CSR arrays reach disk only inside a durable store's snapshot
// (internal/store), beside the index built over them.

// ReadEdgeList parses a whitespace-separated edge list. An undirected
// read symmetrises the pairs (the paper treats all graphs as
// undirected); a directed one reads "u w" as the arc u→w. Self-loops and
// repeats are dropped either way. Vertex ids are arbitrary integers and
// are remapped to a dense range in ascending order, so a file whose ids
// are 0..n-1 keeps them and WriteEdgeList's output reads back as the
// graph that wrote it (isolated vertices aside, which an edge list
// cannot hold); the mapping from dense id to original id is returned.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, []int64, error) {
	pairs, orig, err := scanEdgeList(r, math.MaxInt32)
	if err != nil {
		return nil, nil, err
	}
	b := NewBuilder(len(orig))
	if directed {
		b = NewDirectedBuilder(len(orig))
	}
	for _, e := range pairs {
		b.AddEdge(e.U, e.W)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, orig, nil
}

// scanEdgeList parses the whitespace-separated pairs of an edge list,
// densifying vertex ids in ascending order of the original id. Lines are
// parsed in the scanner's buffer: a real dump is one line per edge, so
// the loop allocates nothing per line. maxIDs (math.MaxInt32 outside tests) is
// the largest dense id V can hold.
func scanEdgeList(r io.Reader, maxIDs int) ([]Edge, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	idOf := make(map[int64]V)
	var orig []int64
	lineNo := 0
	// intern parses one field and returns its dense id. The string
	// conversion does not escape, so a field of ordinary length is parsed
	// from the stack.
	intern := func(field []byte) (V, error) {
		raw, err := strconv.ParseInt(string(field), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, ok := idOf[raw]
		if !ok {
			if len(orig) > maxIDs {
				return 0, fmt.Errorf("graph: line %d: too many distinct vertex ids (more than %d)", lineNo, len(orig))
			}
			v = V(len(orig))
			idOf[raw] = v
			orig = append(orig, raw)
		}
		return v, nil
	}
	var pairs []Edge
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		first, rest := nextField(line)
		second, _ := nextField(rest)
		if len(second) == 0 {
			return nil, nil, fmt.Errorf("graph: line %d: expected two vertex ids, got %q", lineNo, line)
		}
		u, err := intern(first)
		if err != nil {
			return nil, nil, err
		}
		w, err := intern(second)
		if err != nil {
			return nil, nil, err
		}
		pairs = append(pairs, Edge{u, w})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	// The ids were interned in order of first appearance; renumber them
	// in ascending order of the original id.
	slices.Sort(orig)
	rank := make([]V, len(orig))
	for i, raw := range orig {
		rank[idOf[raw]] = V(i)
	}
	for i, e := range pairs {
		pairs[i] = Edge{rank[e.U], rank[e.W]}
	}
	return pairs, orig, nil
}

// nextField returns the first field of b — a maximal run of non-space
// characters, space as strings.Fields defines it — and what follows it.
func nextField(b []byte) (field, rest []byte) {
	isSpace := func(i int) (bool, int) {
		if c := b[i]; c < utf8.RuneSelf {
			return c == ' ' || '\t' <= c && c <= '\r', 1
		}
		r, size := utf8.DecodeRune(b[i:])
		return unicode.IsSpace(r), size
	}
	start := 0
	for start < len(b) {
		space, size := isSpace(start)
		if !space {
			break
		}
		start += size
	}
	end := start
	for end < len(b) {
		space, size := isSpace(end)
		if space {
			break
		}
		end += size
	}
	return b[start:end], b[end:]
}

// ReadEdgeListFile is ReadEdgeList over a file path.
func ReadEdgeListFile(path string, directed bool) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(bufio.NewReaderSize(f, 1<<20), directed)
}

// WriteEdgeList writes the graph as a text edge list: each edge once,
// normalised, or each arc of a directed graph.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	fmt.Fprintf(bw, "# %s graph: %d vertices, %d edges\n", kind, g.NumVertices(), g.NumEdges())
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if g.directed || u < v {
				fmt.Fprintf(bw, "%d %d\n", u, v)
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile is WriteEdgeList to a file path.
func WriteEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CSR exposes the raw arrays: the out-CSR's offsets and concatenated
// adjacency, then the in-CSR's (an undirected graph's are the same
// slices). All four alias the graph's internal storage and must not be
// modified; they exist so serializers can dump the structure without a
// per-element copy.
func (g *Graph) CSR() (offsets []int64, adj []V, inOff []int64, in []V) {
	return g.offsets, g.adj, g.inOff, g.in
}

// FromCSR adopts pre-built CSR arrays as a graph: a directed one from
// its out- and in-CSR, an undirected one from one CSR, passing nil
// in-arrays. It checks the structural invariants that index panics
// depend on (ValidateStructure) in O(n+m). Unlike Validate it does not
// verify that every arc is in the in-adjacency — callers adopting
// checksummed state (the durable store's zero-copy load path, where the
// arrays are views into a snapshot arena) already know the arrays are
// bit-exact, and the pairing check costs a binary search per arc. The
// slices are adopted by reference and must not be modified afterwards.
func FromCSR(offsets []int64, adj []V, inOff []int64, in []V) (*Graph, error) {
	g := undirected(offsets, adj)
	if inOff != nil {
		g.inOff, g.in, g.directed = inOff, in, true
	}
	if err := g.ValidateStructure(); err != nil {
		return nil, err
	}
	return g, nil
}
