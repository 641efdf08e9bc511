package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"qbs/internal/graph"
)

// Index serialization. The on-disk format stores the minimal
// reconstruction state — landmarks, the σ matrix and the label matrix
// (column-major, one landmark column after another) — and recomputes the
// derived structures (APSP, meta-SPG table, Δ) on load; they derive
// deterministically from the stored state and the graph (Lemma 5.2), and
// recomputation is much cheaper than the landmark BFSes. The graph
// itself is not embedded: Load takes the same graph the index was built
// over and validates vertex/arc counts. The format holds one labelling
// and a symmetric σ: it is the undirected index's; a directed index
// persists through the durable store's snapshot (internal/store).

const indexMagic = "QBSI"

// indexVersion 2: labels stored column-major and the meta-graph stored
// as the σ matrix (version 1 stored row-major labels plus an explicit
// meta-edge list).
const indexVersion = 2

// Write serialises the index.
func (ix *Index) Write(w io.Writer) error {
	if !ix.symmetric() {
		return fmt.Errorf("core: the index file format is undirected; persist a directed index through the store")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	hdr := []int64{
		indexVersion,
		int64(ix.out.NumVertices()),
		int64(ix.out.NumArcs()),
		int64(ix.numLand),
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, ix.landmarks); err != nil {
		return err
	}
	if _, err := bw.Write(ix.ms.sigma); err != nil {
		return err
	}
	for _, col := range ix.labelTo {
		if _, err := bw.Write(col); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load deserialises an index previously written with Write, binding it
// to g (which must be the graph the index was built over).
func Load(g *graph.Graph, r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("core: bad index magic %q", magic)
	}
	var version, nV, nArcs, nLand int64
	for _, p := range []*int64{&version, &nV, &nArcs, &nLand} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if version != indexVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", version)
	}
	if int(nV) != g.NumVertices() || int(nArcs) != g.NumArcs() {
		return nil, fmt.Errorf("core: index was built over a graph with |V|=%d arcs=%d, got |V|=%d arcs=%d",
			nV, nArcs, g.NumVertices(), g.NumArcs())
	}
	if nLand < 0 || nLand > 254 {
		return nil, fmt.Errorf("core: corrupt index header")
	}
	landmarks := make([]graph.V, nLand)
	if err := binary.Read(br, binary.LittleEndian, landmarks); err != nil {
		return nil, err
	}
	sh, err := NewShell(g.NumVertices(), landmarks)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt index: %w", err)
	}
	ix := &Index{Shell: *sh, g: g, out: g, in: g}
	R := int(nLand)
	sigma := make([]uint8, R*R)
	if _, err := io.ReadFull(br, sigma); err != nil {
		return nil, err
	}
	for a := 0; a < R; a++ {
		for b := 0; b < R; b++ {
			s := sigma[a*R+b]
			if s != sigma[b*R+a] || (a == b && s != NoEntry) || (s != NoEntry && s == 0) {
				return nil, fmt.Errorf("core: corrupt sigma matrix at (%d,%d)", a, b)
			}
		}
	}
	ix.labelTo = make([][]uint8, R)
	for i := range ix.labelTo {
		col := make([]uint8, nV)
		if _, err := io.ReadFull(br, col); err != nil {
			return nil, err
		}
		ix.labelTo[i] = col
	}
	ix.labelFrom = ix.labelTo
	ix.ms = NewMetaState(R, sigma)

	// Derived structures.
	ix.buildDelta()
	ix.build.LabelEntries = ix.countLabelEntries()
	ix.build.NumLandmarks = ix.numLand
	ix.build.MetaEdges = len(ix.ms.meta)
	return ix, nil
}

// SaveFile writes the index to a file path: into a temporary file of its
// own beside it, synced, renamed over it, and the directory synced so
// the rename lasts. A save that fails or is killed half-way leaves path
// as it was — absent, or the previous index — and never a truncated file
// a later LoadFile would trip over; concurrent saves to one path each
// rename a whole file.
func (ix *Index) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = ix.Write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err // some platforms refuse to sync a directory: best effort there
	}
	return nil
}

// LoadFile reads an index from a file path.
func LoadFile(g *graph.Graph, path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(g, f)
}
