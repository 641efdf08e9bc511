package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"qbs/internal/core"
	"qbs/internal/graph"
)

// Directed snapshot — the format-v5 flavor. A directed index is
// immutable (no dynamic subsystem, hence no WAL), so its durable home is
// a single self-describing checksummed file holding the dual CSR, the
// landmark set, the directed σ matrix, both label matrices and the Δ
// lists, under the same crc32c / 8-aligned / zero-copy discipline as the
// undirected v3 snapshot. See doc.go for the layout and the v3
// compatibility rule.

const (
	diSnapMagic = "QBS4"
	// diSnapVersion 5: label sections column-major, like v3's, so the
	// index adopts each landmark's column as a view (version 4 stored
	// them row-major, which the one engine no longer reads).
	diSnapVersion = 5

	diSnapNumSections = 10
	diSnapTableEnd    = snapHeaderSize + diSnapNumSections*snapSectionSize

	// flagDirected marks the snapshot as the directed flavor in the
	// flags word at offset 44.
	flagDirected = uint32(1)
)

// Directed section kinds, in their fixed file order.
const (
	diSecOutOffsets = 1 + iota
	diSecOutAdj
	diSecInOffsets
	diSecInAdj
	diSecLandmarks
	diSecSigma
	diSecLabelFrom
	diSecLabelTo
	diSecDeltaCounts
	diSecDeltaArcs
)

// diSnapshotName is the canonical file name of the directed snapshot
// inside its data directory.
const diSnapshotName = "directed.qbss"

// DiExists reports whether dir already holds a directed store.
func DiExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, diSnapshotName))
	return err == nil
}

// CreateDi initialises dir as the durable home of a directed index: the
// frozen state st of an index over g is written atomically as one
// snapshot. dir must not already contain a directed store.
func CreateDi(dir string, g *graph.DiGraph, st core.DirectedState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if DiExists(dir) {
		return fmt.Errorf("store: %s already contains a directed store", dir)
	}
	tmp := filepath.Join(dir, diSnapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cleanup := func() {
		_ = f.Close()
		os.Remove(tmp)
	}
	if err := encodeDiSnapshot(f, g, st); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, diSnapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// OpenDi recovers the directed index persisted in dir and the digraph it
// is over: the snapshot is validated and adopted zero-copy (label
// columns, the dual CSR and Δ are typed views into one arena), and only
// the derived meta state (APSP, O(|R|³)) is recomputed. useMMap maps the
// file read-only instead of reading it (the mapping lives until process
// exit).
func OpenDi(dir string, useMMap bool) (*core.Index, *graph.DiGraph, error) {
	ar, err := openArena(filepath.Join(dir, diSnapshotName), useMMap)
	if err != nil {
		return nil, nil, err
	}
	ix, g, err := decodeDiSnapshot(ar.data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: directed snapshot %s: %w", diSnapshotName, err)
	}
	return ix, g, nil
}

// encodeDiSnapshot writes the directed image: payloads first (streamed,
// CRCed), then the header and section table patched in at offset 0.
func encodeDiSnapshot(f *os.File, g *graph.DiGraph, ps core.DirectedState) error {
	outOff, out, inOff, in := g.CSR()
	n := g.NumVertices()
	R := len(ps.Landmarks)

	counts := make([]int32, len(ps.Delta))
	var totalDelta int64
	for k, d := range ps.Delta {
		counts[k] = int32(len(d))
		totalDelta += int64(len(d))
	}
	deltaFlat := make([]int32, 0, 2*totalDelta)
	for _, d := range ps.Delta {
		for _, a := range d {
			deltaFlat = append(deltaFlat, a.U, a.W)
		}
	}

	if _, err := f.Seek(diSnapTableEnd, 0); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)

	type entry struct {
		kind uint32
		off  int64
		len  int64
		crc  uint32
	}
	entries := make([]entry, 0, diSnapNumSections)
	pos := int64(diSnapTableEnd)
	var pad [8]byte
	section := func(kind uint32, write func(sw *sectionWriter) error) error {
		if rem := pos % 8; rem != 0 {
			if _, err := bw.Write(pad[:8-rem]); err != nil {
				return err
			}
			pos += 8 - rem
		}
		sw := &sectionWriter{w: bw}
		if err := write(sw); err != nil {
			return err
		}
		entries = append(entries, entry{kind: kind, off: pos, len: sw.n, crc: sw.crc})
		pos += sw.n
		return nil
	}

	err := section(diSecOutOffsets, func(sw *sectionWriter) error { return sw.i64s(outOff) })
	if err == nil {
		err = section(diSecOutAdj, func(sw *sectionWriter) error { return sw.i32s(out) })
	}
	if err == nil {
		err = section(diSecInOffsets, func(sw *sectionWriter) error { return sw.i64s(inOff) })
	}
	if err == nil {
		err = section(diSecInAdj, func(sw *sectionWriter) error { return sw.i32s(in) })
	}
	if err == nil {
		err = section(diSecLandmarks, func(sw *sectionWriter) error { return sw.i32s(ps.Landmarks) })
	}
	if err == nil {
		err = section(diSecSigma, func(sw *sectionWriter) error { return sw.bytes(ps.Sigma) })
	}
	columns := func(labels [][]uint8) func(sw *sectionWriter) error {
		return func(sw *sectionWriter) error {
			for _, col := range labels {
				if err := sw.bytes(col); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err == nil {
		err = section(diSecLabelFrom, columns(ps.LabelFrom))
	}
	if err == nil {
		err = section(diSecLabelTo, columns(ps.LabelTo))
	}
	if err == nil {
		err = section(diSecDeltaCounts, func(sw *sectionWriter) error { return sw.i32s(counts) })
	}
	if err == nil {
		err = section(diSecDeltaArcs, func(sw *sectionWriter) error { return sw.i32s(deltaFlat) })
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Header + section table. The header CRC covers [0,40), the flags
	// word at [44,48) and the section table (the CRC field itself at
	// [40,44) is excluded).
	hdr := make([]byte, diSnapTableEnd)
	copy(hdr, diSnapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], diSnapVersion)
	binary.LittleEndian.PutUint64(hdr[8:], 0) // epoch: directed stores are immutable
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.NumArcs()))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(R))
	binary.LittleEndian.PutUint32(hdr[36:], diSnapNumSections)
	binary.LittleEndian.PutUint32(hdr[44:], flagDirected)
	for i, e := range entries {
		base := snapHeaderSize + i*snapSectionSize
		binary.LittleEndian.PutUint32(hdr[base:], e.kind)
		binary.LittleEndian.PutUint64(hdr[base+8:], uint64(e.off))
		binary.LittleEndian.PutUint64(hdr[base+16:], uint64(e.len))
		binary.LittleEndian.PutUint32(hdr[base+24:], e.crc)
	}
	crc := crc32.Checksum(hdr[:40], crcTable)
	crc = crc32.Update(crc, crcTable, hdr[44:48])
	crc = crc32.Update(crc, crcTable, hdr[snapHeaderSize:])
	binary.LittleEndian.PutUint32(hdr[40:], crc)
	_, err = f.WriteAt(hdr, 0)
	return err
}

// decodeDiSnapshot validates a directed image and assembles the index,
// and the digraph under it, over typed views into data.
func decodeDiSnapshot(data []byte) (*core.Index, *graph.DiGraph, error) {
	if len(data) < diSnapTableEnd {
		return nil, nil, fmt.Errorf("file too small (%d bytes)", len(data))
	}
	if string(data[:4]) != diSnapMagic {
		if string(data[:4]) == snapMagic {
			return nil, nil, fmt.Errorf("undirected v3 snapshot (open it with OpenStore)")
		}
		return nil, nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != diSnapVersion {
		return nil, nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	n64 := binary.LittleEndian.Uint64(data[16:])
	arcs64 := binary.LittleEndian.Uint64(data[24:])
	R := int(binary.LittleEndian.Uint32(data[32:]))
	if ns := binary.LittleEndian.Uint32(data[36:]); ns != diSnapNumSections {
		return nil, nil, fmt.Errorf("unexpected section count %d", ns)
	}
	flags := binary.LittleEndian.Uint32(data[44:])
	if flags&flagDirected == 0 {
		return nil, nil, fmt.Errorf("directed snapshot without the directed flag")
	}
	wantCRC := binary.LittleEndian.Uint32(data[40:])
	crc := crc32.Checksum(data[:40], crcTable)
	crc = crc32.Update(crc, crcTable, data[44:48])
	crc = crc32.Update(crc, crcTable, data[snapHeaderSize:diSnapTableEnd])
	if crc != wantCRC {
		return nil, nil, fmt.Errorf("header checksum mismatch")
	}
	const maxVertices = 1 << 31
	if n64 >= maxVertices || arcs64 >= 1<<33 {
		return nil, nil, fmt.Errorf("implausible header (n=%d arcs=%d)", n64, arcs64)
	}
	n, arcs := int(n64), int64(arcs64)
	if R < 0 || R > 254 {
		return nil, nil, fmt.Errorf("landmark count %d out of range", R)
	}

	sections := make([][]byte, diSnapNumSections)
	secCRCs := make([]uint32, diSnapNumSections)
	for i := 0; i < diSnapNumSections; i++ {
		base := snapHeaderSize + i*snapSectionSize
		kind := binary.LittleEndian.Uint32(data[base:])
		off := binary.LittleEndian.Uint64(data[base+8:])
		length := binary.LittleEndian.Uint64(data[base+16:])
		secCRCs[i] = binary.LittleEndian.Uint32(data[base+24:])
		if kind != uint32(i+1) {
			return nil, nil, fmt.Errorf("section %d has kind %d, want %d", i, kind, i+1)
		}
		if off%8 != 0 || off < diSnapTableEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, nil, fmt.Errorf("section %d geometry out of bounds (off=%d len=%d)", i, off, length)
		}
		sections[i] = data[off : off+length]
	}
	if err := parallelErr(diSnapNumSections, func(i int) error {
		if crc32.Checksum(sections[i], crcTable) != secCRCs[i] {
			return fmt.Errorf("section %d checksum mismatch", i)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	expect := func(kind int, want int64) ([]byte, error) {
		sec := sections[kind-1]
		if int64(len(sec)) != want {
			return nil, fmt.Errorf("section %d has %d bytes, want %d", kind-1, len(sec), want)
		}
		return sec, nil
	}

	outOffSec, err := expect(diSecOutOffsets, int64(n+1)*8)
	if err != nil {
		return nil, nil, err
	}
	outAdjSec, err := expect(diSecOutAdj, arcs*4)
	if err != nil {
		return nil, nil, err
	}
	inOffSec, err := expect(diSecInOffsets, int64(n+1)*8)
	if err != nil {
		return nil, nil, err
	}
	inAdjSec, err := expect(diSecInAdj, arcs*4)
	if err != nil {
		return nil, nil, err
	}
	landSec, err := expect(diSecLandmarks, int64(R)*4)
	if err != nil {
		return nil, nil, err
	}
	sigma, err := expect(diSecSigma, int64(R)*int64(R))
	if err != nil {
		return nil, nil, err
	}
	labFromSec, err := expect(diSecLabelFrom, int64(n)*int64(R))
	if err != nil {
		return nil, nil, err
	}
	labToSec, err := expect(diSecLabelTo, int64(n)*int64(R))
	if err != nil {
		return nil, nil, err
	}

	g, err := graph.DiFromCSR(viewI64(outOffSec), viewI32(outAdjSec), viewI64(inOffSec), viewI32(inAdjSec))
	if err != nil {
		return nil, nil, err
	}
	landmarks := viewI32(landSec)

	// σ invariants: empty diagonal, no zero-weight meta-arcs (directed σ
	// is not symmetric). The count of present entries fixes numMeta.
	numMeta := 0
	for a := 0; a < R; a++ {
		for b := 0; b < R; b++ {
			s := sigma[a*R+b]
			if (a == b && s != core.NoEntry) || (s != core.NoEntry && s == 0) {
				return nil, nil, fmt.Errorf("corrupt sigma matrix at (%d,%d)", a, b)
			}
			if a != b && s != core.NoEntry {
				numMeta++
			}
		}
	}

	countSec, err := expect(diSecDeltaCounts, int64(numMeta)*4)
	if err != nil {
		return nil, nil, err
	}
	counts := viewI32(countSec)
	var totalDelta int64
	for _, c := range counts {
		if c < 0 {
			return nil, nil, fmt.Errorf("negative delta count")
		}
		totalDelta += int64(c)
	}
	arcSec, err := expect(diSecDeltaArcs, totalDelta*8)
	if err != nil {
		return nil, nil, err
	}
	allArcs := viewEdges(arcSec)
	const arcChunk = 1 << 20
	if err := parallelErr((len(allArcs)+arcChunk-1)/arcChunk, func(c int) error {
		for _, a := range allArcs[c*arcChunk : min(len(allArcs), (c+1)*arcChunk)] {
			if a.U < 0 || int(a.U) >= n || a.W < 0 || int(a.W) >= n || a.U == a.W {
				return fmt.Errorf("delta arc %d->%d invalid for %d vertices", a.U, a.W, n)
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	delta := make([][]graph.Edge, numMeta)
	at := 0
	for k, c := range counts {
		delta[k] = allArcs[at : at+int(c) : at+int(c)]
		at += int(c)
	}

	// Label invariants: landmarks carry no entries (neither labelling
	// writes a landmark's row), non-landmark entries are depths in
	// [1, 254]. One worker per column of either labelling; isLand is a
	// local bitmap so the scan stays O(1) per byte.
	isLand := make([]bool, n)
	for _, r := range landmarks {
		if r < 0 || int(r) >= n {
			return nil, nil, fmt.Errorf("landmark %d out of range", r)
		}
		isLand[r] = true
	}
	labelFrom, labelTo := make([][]uint8, R), make([][]uint8, R)
	for r := 0; r < R; r++ {
		labelFrom[r] = labFromSec[r*n : (r+1)*n : (r+1)*n]
		labelTo[r] = labToSec[r*n : (r+1)*n : (r+1)*n]
	}
	if err := parallelErr(2*R, func(c int) error {
		name, col := "labelFrom", labelFrom[c%R]
		if c >= R {
			name, col = "labelTo", labelTo[c%R]
		}
		for v, l := range col {
			if isLand[v] && l != core.NoEntry {
				return fmt.Errorf("landmark vertex %d carries a label entry", v)
			}
			if l == 0 {
				return fmt.Errorf("zero %s depth at vertex %d", name, v)
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	ix, err := core.AssembleDirected(g, core.DirectedState{
		Landmarks: landmarks,
		Sigma:     sigma,
		LabelTo:   labelTo,
		LabelFrom: labelFrom,
		Delta:     delta,
	})
	if err != nil {
		return nil, nil, err
	}
	return ix, g, nil
}
