package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"qbs/internal/core"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
)

// Snapshot format v3. See doc.go for the layout. Encoding streams each
// section through an incremental CRC so even large indexes serialise
// without a second in-memory copy; decoding validates structure (magic,
// counts, section geometry, checksums, graph well-formedness, σ
// symmetry, label/distance consistency) and then hands out typed views
// into the arena.

const (
	snapMagic   = "QBS3"
	snapVersion = 3

	snapHeaderSize  = 48
	snapSectionSize = 32
	snapNumSections = 8
	snapTableEnd    = snapHeaderSize + snapNumSections*snapSectionSize
)

// Section kinds, in their fixed file order.
const (
	secGraphOffsets = 1 + iota
	secGraphAdj
	secLandmarks
	secSigma
	secLabels
	secDists
	secDeltaCounts
	secDeltaEdges
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// snapshotFileName is the canonical name of the snapshot at an epoch.
func snapshotFileName(epoch uint64) string {
	return fmt.Sprintf("snapshot-%016d.qbss", epoch)
}

// snapshotEpoch parses an epoch back out of a snapshot file name.
func snapshotEpoch(name string) (uint64, bool) {
	var e uint64
	if _, err := fmt.Sscanf(name, "snapshot-%d.qbss", &e); err != nil {
		return 0, false
	}
	return e, name == snapshotFileName(e)
}

// sectionWriter streams one section: it counts bytes, accumulates the
// CRC, and buffers writes through the shared bufio.Writer.
type sectionWriter struct {
	w   *bufio.Writer
	n   int64
	crc uint32
	buf [8]byte
}

func (sw *sectionWriter) bytes(p []byte) error {
	sw.crc = crc32.Update(sw.crc, crcTable, p)
	sw.n += int64(len(p))
	_, err := sw.w.Write(p)
	return err
}

func (sw *sectionWriter) u32(v uint32) error {
	binary.LittleEndian.PutUint32(sw.buf[:4], v)
	return sw.bytes(sw.buf[:4])
}

func (sw *sectionWriter) i32s(vs []int32) error {
	if hostLittleEndian {
		return sw.bytes(unsafeBytesI32(vs))
	}
	for _, v := range vs {
		if err := sw.u32(uint32(v)); err != nil {
			return err
		}
	}
	return nil
}

func (sw *sectionWriter) i64s(vs []int64) error {
	if hostLittleEndian {
		return sw.bytes(unsafeBytesI64(vs))
	}
	for _, v := range vs {
		binary.LittleEndian.PutUint64(sw.buf[:8], uint64(v))
		if err := sw.bytes(sw.buf[:8]); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshotFile serialises ps to path atomically: a temp file in the
// same directory is written, fsynced and renamed over the target, then
// the directory is fsynced so the rename itself is durable.
func writeSnapshotFile(dir string, ps dynamic.PersistentState) (string, error) {
	name := snapshotFileName(ps.Epoch)
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	cleanup := func() {
		_ = f.Close()
		os.Remove(tmp)
	}
	if err := encodeSnapshot(f, ps); err != nil {
		cleanup()
		return "", err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return name, syncDir(dir)
}

// encodeSnapshot writes the v3 image: payloads first (streamed, CRCed),
// then the header and section table patched in at offset 0.
func encodeSnapshot(f *os.File, ps dynamic.PersistentState) error {
	offsets, adj := ps.Graph.CSR()
	n := ps.Graph.NumVertices()
	R := len(ps.Landmarks)

	counts := make([]int32, len(ps.Delta))
	var totalDelta int64
	for k, d := range ps.Delta {
		counts[k] = int32(len(d))
		totalDelta += int64(len(d))
	}
	deltaFlat := make([]int32, 0, 2*totalDelta)
	for _, d := range ps.Delta {
		for _, e := range d {
			deltaFlat = append(deltaFlat, e.U, e.W)
		}
	}

	if _, err := f.Seek(snapTableEnd, 0); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)

	type entry struct {
		kind uint32
		off  int64
		len  int64
		crc  uint32
	}
	entries := make([]entry, 0, snapNumSections)
	pos := int64(snapTableEnd)
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

	err := section(secGraphOffsets, func(sw *sectionWriter) error { return sw.i64s(offsets) })
	if err == nil {
		err = section(secGraphAdj, func(sw *sectionWriter) error { return sw.i32s(adj) })
	}
	if err == nil {
		err = section(secLandmarks, func(sw *sectionWriter) error { return sw.i32s(ps.Landmarks) })
	}
	if err == nil {
		err = section(secSigma, func(sw *sectionWriter) error { return sw.bytes(ps.Sigma) })
	}
	if err == nil {
		err = section(secLabels, func(sw *sectionWriter) error {
			for _, col := range ps.Labels {
				if e := sw.bytes(col); e != nil {
					return e
				}
			}
			return nil
		})
	}
	if err == nil {
		err = section(secDists, func(sw *sectionWriter) error {
			for _, col := range ps.Dists {
				if e := sw.i32s(col); e != nil {
					return e
				}
			}
			return nil
		})
	}
	if err == nil {
		err = section(secDeltaCounts, func(sw *sectionWriter) error { return sw.i32s(counts) })
	}
	if err == nil {
		err = section(secDeltaEdges, func(sw *sectionWriter) error { return sw.i32s(deltaFlat) })
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Header + section table, with the header CRC over both (CRC field
	// excluded by covering [0,40) then the table).
	hdr := make([]byte, snapTableEnd)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[8:], ps.Epoch)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(ps.Graph.NumArcs()))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(R))
	binary.LittleEndian.PutUint32(hdr[36:], snapNumSections)
	for i, e := range entries {
		base := snapHeaderSize + i*snapSectionSize
		binary.LittleEndian.PutUint32(hdr[base:], e.kind)
		binary.LittleEndian.PutUint64(hdr[base+8:], uint64(e.off))
		binary.LittleEndian.PutUint64(hdr[base+16:], uint64(e.len))
		binary.LittleEndian.PutUint32(hdr[base+24:], e.crc)
	}
	crc := crc32.Checksum(hdr[:40], crcTable)
	crc = crc32.Update(crc, crcTable, hdr[snapHeaderSize:])
	binary.LittleEndian.PutUint32(hdr[40:], crc)
	_, err = f.WriteAt(hdr, 0)
	return err
}

// loadedSnapshot is a decoded snapshot: typed views plus the arena that
// backs them (kept referenced so a GC cannot reclaim it from under the
// views).
type loadedSnapshot struct {
	epoch     uint64
	g         *graph.Graph
	landmarks []graph.V
	sigma     []uint8
	labels    [][]uint8
	dists     [][]int32
	delta     [][]graph.Edge
	arena     *arena
}

func decodeSnapshot(data []byte) (*loadedSnapshot, error) {
	if len(data) < snapTableEnd {
		return nil, fmt.Errorf("file too small (%d bytes)", len(data))
	}
	if string(data[:4]) != snapMagic {
		if string(data[:4]) == diSnapMagic {
			return nil, fmt.Errorf("directed snapshot (open it with OpenDiStore)")
		}
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	epoch := binary.LittleEndian.Uint64(data[8:])
	n64 := binary.LittleEndian.Uint64(data[16:])
	arcs64 := binary.LittleEndian.Uint64(data[24:])
	R := int(binary.LittleEndian.Uint32(data[32:]))
	if ns := binary.LittleEndian.Uint32(data[36:]); ns != snapNumSections {
		return nil, fmt.Errorf("unexpected section count %d", ns)
	}
	wantCRC := binary.LittleEndian.Uint32(data[40:])
	crc := crc32.Checksum(data[:40], crcTable)
	crc = crc32.Update(crc, crcTable, data[snapHeaderSize:snapTableEnd])
	if crc != wantCRC {
		return nil, fmt.Errorf("header checksum mismatch")
	}
	const maxVertices = 1 << 31
	if n64 >= maxVertices || arcs64 >= 1<<33 || arcs64%2 != 0 {
		return nil, fmt.Errorf("implausible header (n=%d arcs=%d)", n64, arcs64)
	}
	n, arcs := int(n64), int64(arcs64)
	if R < 0 || R > 254 {
		return nil, fmt.Errorf("landmark count %d out of range", R)
	}

	// Section table: fixed kind order, in-bounds aligned geometry, then
	// CRCs verified in parallel (the big sections dominate load time).
	sections := make([][]byte, snapNumSections)
	secCRCs := make([]uint32, snapNumSections)
	for i := 0; i < snapNumSections; i++ {
		base := snapHeaderSize + i*snapSectionSize
		kind := binary.LittleEndian.Uint32(data[base:])
		off := binary.LittleEndian.Uint64(data[base+8:])
		length := binary.LittleEndian.Uint64(data[base+16:])
		secCRCs[i] = binary.LittleEndian.Uint32(data[base+24:])
		if kind != uint32(i+1) {
			return nil, fmt.Errorf("section %d has kind %d, want %d", i, kind, i+1)
		}
		if off%8 != 0 || off < snapTableEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("section %d geometry out of bounds (off=%d len=%d)", i, off, length)
		}
		sections[i] = data[off : off+length]
	}
	if err := parallelErr(snapNumSections, func(i int) error {
		if crc32.Checksum(sections[i], crcTable) != secCRCs[i] {
			return fmt.Errorf("section %d checksum mismatch", i)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	expect := func(kind int, want int64) ([]byte, error) {
		sec := sections[kind-1]
		if int64(len(sec)) != want {
			return nil, fmt.Errorf("section %d has %d bytes, want %d", kind-1, len(sec), want)
		}
		return sec, nil
	}

	offSec, err := expect(secGraphOffsets, int64(n+1)*8)
	if err != nil {
		return nil, err
	}
	adjSec, err := expect(secGraphAdj, arcs*4)
	if err != nil {
		return nil, err
	}
	landSec, err := expect(secLandmarks, int64(R)*4)
	if err != nil {
		return nil, err
	}
	sigma, err := expect(secSigma, int64(R)*int64(R))
	if err != nil {
		return nil, err
	}
	labSec, err := expect(secLabels, int64(R)*int64(n))
	if err != nil {
		return nil, err
	}
	distSec, err := expect(secDists, int64(R)*int64(n)*4)
	if err != nil {
		return nil, err
	}

	g, err := graph.FromCSR(viewI64(offSec), viewI32(adjSec))
	if err != nil {
		return nil, err
	}
	landmarks := viewI32(landSec)

	// σ invariants (mirrors core's loader): symmetric, empty diagonal, no
	// zero-weight meta-edges.
	numMeta := 0
	for a := 0; a < R; a++ {
		for b := 0; b < R; b++ {
			s := sigma[a*R+b]
			if s != sigma[b*R+a] || (a == b && s != core.NoEntry) || (s != core.NoEntry && s == 0) {
				return nil, fmt.Errorf("corrupt sigma matrix at (%d,%d)", a, b)
			}
			if a < b && s != core.NoEntry {
				numMeta++
			}
		}
	}

	countSec, err := expect(secDeltaCounts, int64(numMeta)*4)
	if err != nil {
		return nil, err
	}
	counts := viewI32(countSec)
	var totalDelta int64
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("negative delta count")
		}
		totalDelta += int64(c)
	}
	edgeSec, err := expect(secDeltaEdges, totalDelta*8)
	if err != nil {
		return nil, err
	}
	allEdges := viewEdges(edgeSec)
	const edgeChunk = 1 << 20
	if err := parallelErr((len(allEdges)+edgeChunk-1)/edgeChunk, func(c int) error {
		for _, e := range allEdges[c*edgeChunk : min(len(allEdges), (c+1)*edgeChunk)] {
			if e.U < 0 || int(e.U) >= n || e.W < 0 || int(e.W) >= n || e.U > e.W {
				return fmt.Errorf("delta edge {%d,%d} invalid for %d vertices", e.U, e.W, n)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	delta := make([][]graph.Edge, numMeta)
	at := 0
	for k, c := range counts {
		delta[k] = allEdges[at : at+int(c) : at+int(c)]
		at += int(c)
	}

	// Column views plus the label/distance consistency invariant: a
	// present label equals the distance, distances are byte-representable
	// or infinite. This keeps replayed repairs (which trust dist) from
	// operating on nonsense. One worker per landmark column.
	labels := make([][]uint8, R)
	dists := make([][]int32, R)
	allDists := viewI32(distSec)
	for r := 0; r < R; r++ {
		labels[r] = labSec[r*n : (r+1)*n : (r+1)*n]
		dists[r] = allDists[r*n : (r+1)*n : (r+1)*n]
	}
	if err := parallelErr(R, func(r int) error {
		lab, dist := labels[r], dists[r]
		for v := 0; v < n; v++ {
			dv := dist[v]
			if dv != graph.InfDist && (dv < 0 || dv > core.MaxLabelDist) {
				return fmt.Errorf("column %d distance %d unrepresentable", r, dv)
			}
			if l := lab[v]; l != core.NoEntry && int32(l) != dv {
				return fmt.Errorf("column %d label/distance mismatch at vertex %d", r, v)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	return &loadedSnapshot{
		epoch:     epoch,
		g:         g,
		landmarks: landmarks,
		sigma:     sigma,
		labels:    labels,
		dists:     dists,
		delta:     delta,
	}, nil
}

// parallelErr runs fn(0..k-1) on up to GOMAXPROCS goroutines and
// returns one of the errors raised, if any. Used for the big decode
// validations; every task reads only immutable arena views.
func parallelErr(k int, fn func(i int) error) error {
	if k <= 1 {
		if k == 1 {
			return fn(0)
		}
		return nil
	}
	workers := min(k, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k || firstErr.Load() != nil {
					return
				}
				if err := fn(i); err != nil {
					//qbs:allow loggedpublish first-error capture, not an epoch publish
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable (best effort on platforms where directories reject Sync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
