package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// I/O for graphs in two formats:
//
//   - Text edge lists, one "u w" pair per line, '#' or '%' comments —
//     the format used by SNAP and KONECT dumps that the paper's datasets
//     ship in. Vertex ids may be sparse; they are densified on load.
//   - A binary CSR snapshot ("QBSG" magic) for fast reload of generated
//     analogs between harness runs.

// ReadEdgeList parses a whitespace-separated edge list. Directed inputs
// are symmetrised (the paper treats all graphs as undirected). Vertex ids
// are arbitrary non-negative integers and are remapped to a dense range;
// the mapping from dense id to original id is returned.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	pairs, orig, err := scanEdgeList(r, math.MaxInt32)
	if err != nil {
		return nil, nil, err
	}
	b := NewBuilder(len(orig))
	for _, e := range pairs {
		b.AddEdge(e.U, e.W)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, orig, nil
}

// scanEdgeList parses the whitespace-separated pairs shared by the
// undirected (symmetrising) and directed readers, densifying vertex ids
// in order of first appearance. Lines are parsed in the scanner's buffer:
// a real dump is one line per edge, so the loop allocates nothing per
// line. maxIDs (math.MaxInt32 outside tests) is the largest dense id V
// can hold.
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

// ReadDiEdgeList parses a whitespace-separated edge list as *directed*
// arcs "u w" = u→w, without symmetrising (self-loops and duplicates are
// dropped). Vertex ids are densified exactly as in ReadEdgeList.
func ReadDiEdgeList(r io.Reader) (*DiGraph, []int64, error) {
	pairs, orig, err := scanEdgeList(r, math.MaxInt32)
	if err != nil {
		return nil, nil, err
	}
	b := NewDiBuilder(len(orig))
	for _, e := range pairs {
		b.AddArc(e.U, e.W)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, orig, nil
}

// ReadDiEdgeListFile is ReadDiEdgeList over a file path.
func ReadDiEdgeListFile(path string) (*DiGraph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadDiEdgeList(bufio.NewReaderSize(f, 1<<20))
}

// ReadEdgeListFile is ReadEdgeList over a file path.
func ReadEdgeListFile(path string) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(bufio.NewReaderSize(f, 1<<20))
}

// WriteEdgeList writes the graph as a normalised text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# undirected graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for u := V(0); u < V(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
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

// CSR exposes the raw CSR arrays (offsets and concatenated adjacency).
// Both slices alias the graph's internal storage and must not be
// modified; they exist so serializers can dump the structure without a
// per-element copy.
func (g *Graph) CSR() (offsets []int64, adj []V) { return g.offsets, g.adj }

// FromCSR adopts pre-built CSR arrays as a graph, checking the
// structural invariants that index panics depend on (monotone in-range
// offsets, sorted in-range neighbour lists, no self-loops) in O(n+m).
// Unlike Validate it does not verify that every arc has its reverse —
// callers adopting checksummed state (the durable store's zero-copy
// load path, where both arrays are views into a snapshot arena) already
// know the arrays are bit-exact, and the pairing check costs a binary
// search per arc. The slices are adopted by reference and must not be
// modified afterwards.
func FromCSR(offsets []int64, adj []V) (*Graph, error) {
	g := &Graph{offsets: offsets, adj: adj}
	if err := g.ValidateStructure(); err != nil {
		return nil, err
	}
	return g, nil
}

const binaryMagic = "QBSG"

// WriteBinary serialises the CSR structure: magic, version, |V|, |arcs|,
// offsets and adjacency in little-endian.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := []int64{1, int64(g.NumVertices()), int64(g.NumArcs())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserialises a graph written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var version, n, arcs int64
	for _, p := range []*int64{&version, &n, &arcs} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if version != 1 {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	const maxCount = int64(1) << 34
	if n < 0 || arcs < 0 || arcs%2 != 0 || n > maxCount || arcs > maxCount {
		return nil, fmt.Errorf("graph: corrupt header (n=%d arcs=%d)", n, arcs)
	}
	g := &Graph{}
	// Allocate incrementally in bounded chunks so a corrupt header cannot
	// force a huge up-front allocation: the stream must actually contain
	// the data before memory grows.
	offsets, err := readChunkedInt64(br, n+1)
	if err != nil {
		return nil, err
	}
	g.offsets = offsets
	adj, err := readChunkedInt32(br, arcs)
	if err != nil {
		return nil, err
	}
	g.adj = adj
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

const readChunk = 1 << 16

func readChunkedInt64(r io.Reader, count int64) ([]int64, error) {
	out := make([]int64, 0, min64(count, readChunk))
	buf := make([]int64, readChunk)
	for int64(len(out)) < count {
		c := min64(count-int64(len(out)), readChunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, err
		}
		out = append(out, buf[:c]...)
	}
	return out, nil
}

func readChunkedInt32(r io.Reader, count int64) ([]V, error) {
	out := make([]V, 0, min64(count, readChunk))
	buf := make([]V, readChunk)
	for int64(len(out)) < count {
		c := min64(count-int64(len(out)), readChunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, err
		}
		out = append(out, buf[:c]...)
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// WriteBinaryFile is WriteBinary to a file path.
func WriteBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile is ReadBinary over a file path.
func ReadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
