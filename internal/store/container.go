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
	"qbs/internal/graph"
)

// The snapshot container: a fixed header, a section table and 8-aligned
// crc32c-checksummed sections (doc.go has the byte layout). Both
// snapshot formats are written and parsed here; a schema says what tells
// one format's files from the other's, and the schema files (schema_v3.go,
// schema_v5.go) say what the sections hold and which invariants they
// obey.

const (
	snapHeaderSize  = 48
	snapSectionSize = 32
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// schema identifies one snapshot format over the container. Its
// sections carry the kinds 1..sections in file order.
type schema struct {
	magic    string
	version  uint32
	sections int
	// flags is the required value of the flags word at [44,48). A format
	// that sets it has the word covered by the header CRC; v3 predates
	// the word, leaves it zero padding and its CRC skips it.
	flags uint32
	// What a decoder of the other format calls a file of this one.
	name, opener string
}

var schemas = []*schema{&schemaV3, &schemaV5}

func (sc *schema) tableEnd() int { return snapHeaderSize + sc.sections*snapSectionSize }

// headerCRC is the checksum at [40,44): over [0,40), the flags word if
// the format has one, and the section table.
func (sc *schema) headerCRC(hdr []byte) uint32 {
	crc := crc32.Checksum(hdr[:40], crcTable)
	if sc.flags != 0 {
		crc = crc32.Update(crc, crcTable, hdr[44:48])
	}
	return crc32.Update(crc, crcTable, hdr[snapHeaderSize:sc.tableEnd()])
}

// header is the counts every snapshot states up front.
type header struct {
	epoch     uint64
	n         int   // vertices
	arcs      int64 // stored arcs (2·|E| undirected)
	landmarks int   // R
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

func (sw *sectionWriter) i32s(vs []int32) error {
	if hostLittleEndian {
		return sw.bytes(unsafeBytesI32(vs))
	}
	for _, v := range vs {
		binary.LittleEndian.PutUint32(sw.buf[:4], uint32(v))
		if err := sw.bytes(sw.buf[:4]); err != nil {
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

// section is one section's payload, streamed.
type section func(sw *sectionWriter) error

func i64Section(vs []int64) section { return func(sw *sectionWriter) error { return sw.i64s(vs) } }
func i32Section(vs []int32) section { return func(sw *sectionWriter) error { return sw.i32s(vs) } }
func byteSection(p []byte) section  { return func(sw *sectionWriter) error { return sw.bytes(p) } }

// byteColumns and i32Columns lay a column-major matrix out one column
// after another.
func byteColumns(cols [][]uint8) section {
	return func(sw *sectionWriter) error {
		for _, col := range cols {
			if err := sw.bytes(col); err != nil {
				return err
			}
		}
		return nil
	}
}

func i32Columns(cols [][]int32) section {
	return func(sw *sectionWriter) error {
		for _, col := range cols {
			if err := sw.i32s(col); err != nil {
				return err
			}
		}
		return nil
	}
}

// deltaSections is the pair every format ends with: the Δ list lengths
// and the lists themselves, flattened.
func deltaSections(delta [][]graph.Edge) (counts, edges section) {
	lens := make([]int32, len(delta))
	total := 0
	for k, d := range delta {
		lens[k] = int32(len(d))
		total += len(d)
	}
	flat := make([]int32, 0, 2*total)
	for _, d := range delta {
		for _, e := range d {
			flat = append(flat, e.U, e.W)
		}
	}
	return i32Section(lens), i32Section(flat)
}

// encode writes the image to f: payloads first (streamed, CRCed, each
// 8-byte aligned), then the header and section table patched in at
// offset 0.
func (sc *schema) encode(f *os.File, h header, payloads ...section) error {
	if len(payloads) != sc.sections {
		return fmt.Errorf("store: %d sections for a %d-section format", len(payloads), sc.sections)
	}
	pos := int64(sc.tableEnd())
	if _, err := f.Seek(pos, 0); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	hdr := make([]byte, pos)
	var pad [8]byte
	for i, write := range payloads {
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
		base := snapHeaderSize + i*snapSectionSize
		binary.LittleEndian.PutUint32(hdr[base:], uint32(i+1))
		binary.LittleEndian.PutUint64(hdr[base+8:], uint64(pos))
		binary.LittleEndian.PutUint64(hdr[base+16:], uint64(sw.n))
		binary.LittleEndian.PutUint32(hdr[base+24:], sw.crc)
		pos += sw.n
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	copy(hdr, sc.magic)
	binary.LittleEndian.PutUint32(hdr[4:], sc.version)
	binary.LittleEndian.PutUint64(hdr[8:], h.epoch)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(h.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(h.arcs))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(h.landmarks))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(sc.sections))
	binary.LittleEndian.PutUint32(hdr[44:], sc.flags)
	binary.LittleEndian.PutUint32(hdr[40:], sc.headerCRC(hdr))
	_, err := f.WriteAt(hdr, 0)
	return err
}

// sections is a decoded image's section payloads, by kind-1.
type sections [][]byte

// decode validates data as an image of the format — size, magic (a file
// of the other format is named, with the entry point that opens it),
// version, section count, flags, header CRC, plausible counts, in-bounds
// aligned section geometry in kind order, section CRCs (in parallel: the
// big sections dominate load time) — and returns the header and the
// section payloads as views into data.
func (sc *schema) decode(data []byte) (header, sections, error) {
	var h header
	if len(data) < sc.tableEnd() {
		return h, nil, fmt.Errorf("file too small (%d bytes)", len(data))
	}
	if magic := string(data[:4]); magic != sc.magic {
		for _, o := range schemas {
			if magic == o.magic {
				return h, nil, fmt.Errorf("%s (open it with %s)", o.name, o.opener)
			}
		}
		return h, nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != sc.version {
		return h, nil, fmt.Errorf("unsupported snapshot version %d", v)
	}
	if ns := binary.LittleEndian.Uint32(data[36:]); ns != uint32(sc.sections) {
		return h, nil, fmt.Errorf("unexpected section count %d", ns)
	}
	if flags := binary.LittleEndian.Uint32(data[44:]); flags&sc.flags != sc.flags {
		return h, nil, fmt.Errorf("%s without its flag (flags word %#x)", sc.name, flags)
	}
	if sc.headerCRC(data) != binary.LittleEndian.Uint32(data[40:]) {
		return h, nil, fmt.Errorf("header checksum mismatch")
	}
	h.epoch = binary.LittleEndian.Uint64(data[8:])
	n64 := binary.LittleEndian.Uint64(data[16:])
	arcs64 := binary.LittleEndian.Uint64(data[24:])
	h.landmarks = int(binary.LittleEndian.Uint32(data[32:]))
	if n64 >= 1<<31 || arcs64 >= 1<<33 {
		return h, nil, fmt.Errorf("implausible header (n=%d arcs=%d)", n64, arcs64)
	}
	h.n, h.arcs = int(n64), int64(arcs64)
	if h.landmarks < 0 || h.landmarks > 254 {
		return h, nil, fmt.Errorf("landmark count %d out of range", h.landmarks)
	}

	secs := make(sections, sc.sections)
	crcs := make([]uint32, sc.sections)
	for i := range secs {
		base := snapHeaderSize + i*snapSectionSize
		kind := binary.LittleEndian.Uint32(data[base:])
		off := binary.LittleEndian.Uint64(data[base+8:])
		length := binary.LittleEndian.Uint64(data[base+16:])
		crcs[i] = binary.LittleEndian.Uint32(data[base+24:])
		if kind != uint32(i+1) {
			return h, nil, fmt.Errorf("section %d has kind %d, want %d", i, kind, i+1)
		}
		if off%8 != 0 || off < uint64(sc.tableEnd()) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return h, nil, fmt.Errorf("section %d geometry out of bounds (off=%d len=%d)", i, off, length)
		}
		secs[i] = data[off : off+length]
	}
	err := parallelErr(len(secs), func(i int) error {
		if crc32.Checksum(secs[i], crcTable) != crcs[i] {
			return fmt.Errorf("section %d checksum mismatch", i)
		}
		return nil
	})
	return h, secs, err
}

// sized returns the section of the given kind, which must hold exactly
// want bytes.
func (s sections) sized(kind int, want int64) ([]byte, error) {
	sec := s[kind-1]
	if int64(len(sec)) != want {
		return nil, fmt.Errorf("section %d has %d bytes, want %d", kind-1, len(sec), want)
	}
	return sec, nil
}

// checkSigma validates a σ matrix — empty diagonal, no zero-weight
// meta-edges, and symmetry where the format promises it — and returns
// the number of meta-edges it implies: present entries, counted once per
// unordered pair when symmetric.
func checkSigma(sigma []uint8, R int, symmetric bool) (numMeta int, err error) {
	for a := 0; a < R; a++ {
		for b := 0; b < R; b++ {
			s := sigma[a*R+b]
			if (symmetric && s != sigma[b*R+a]) || (a == b && s != core.NoEntry) || s == 0 {
				return 0, fmt.Errorf("corrupt sigma matrix at (%d,%d)", a, b)
			}
			if s != core.NoEntry && (a < b || !symmetric && a != b) {
				numMeta++
			}
		}
	}
	return numMeta, nil
}

// delta decodes the Δ count and edge sections (kinds counts, counts+1)
// into numMeta lists over n vertices, each a view into the edge
// section. Endpoints must be in range; an undirected list holds
// normalised edges, a directed one no self-loops.
func (s sections) delta(counts, numMeta, n int, directed bool) ([][]graph.Edge, error) {
	countSec, err := s.sized(counts, int64(numMeta)*4)
	if err != nil {
		return nil, err
	}
	lens := viewI32(countSec)
	var total int64
	for _, c := range lens {
		if c < 0 {
			return nil, fmt.Errorf("negative delta count")
		}
		total += int64(c)
	}
	edgeSec, err := s.sized(counts+1, total*8)
	if err != nil {
		return nil, err
	}
	all := viewEdges(edgeSec)
	const chunk = 1 << 20
	if err := parallelErr((len(all)+chunk-1)/chunk, func(c int) error {
		for _, e := range all[c*chunk : min(len(all), (c+1)*chunk)] {
			bad := e.U > e.W
			if directed {
				bad = e.U == e.W
			}
			if bad || e.U < 0 || int(e.U) >= n || e.W < 0 || int(e.W) >= n {
				return fmt.Errorf("delta edge (%d,%d) invalid for %d vertices", e.U, e.W, n)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	delta := make([][]graph.Edge, numMeta)
	at := 0
	for k, c := range lens {
		delta[k] = all[at : at+int(c) : at+int(c)]
		at += int(c)
	}
	return delta, nil
}

// columns slices a column-major section into its R columns of n entries.
func columns[T any](all []T, R, n int) [][]T {
	cols := make([][]T, R)
	for r := range cols {
		cols[r] = all[r*n : (r+1)*n : (r+1)*n]
	}
	return cols
}

// writeFileAtomic writes dir/name through encode atomically: a temp
// file in the same directory is written, fsynced and renamed over the
// target, then the directory is fsynced so the rename itself is durable.
func writeFileAtomic(dir, name string, encode func(f *os.File) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
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
