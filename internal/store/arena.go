package store

import (
	"encoding/binary"
	"os"
	"unsafe"

	"qbs/internal/graph"
)

// The snapshot arena: the whole file as one byte slice, either heap
// (single read) or a read-only mmap, from which all bulk arrays are
// sliced as typed views without element-wise decoding.

// hostLittleEndian reports whether typed views can alias the arena
// directly. On a big-endian host every view falls back to a decode copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// arena is the loaded snapshot backing store. When mmapped it stays
// mapped for the life of the process: index snapshots adopt views into
// it with no lifetime tracking, so unmapping would be a use-after-free.
type arena struct {
	data    []byte
	mmapped bool
}

// openArena loads path into an arena. useMMap requests a read-only
// mapping where the platform supports it; otherwise (and on any mmap
// failure) the file is read into memory in one call.
func openArena(path string, useMMap bool) (*arena, error) {
	if useMMap {
		if data, ok := mmapFile(path); ok {
			return &arena{data: data, mmapped: true}, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &arena{data: data}, nil
}

// aligned4 reports whether b starts on a 4-byte boundary (mmap regions
// and Go heap allocations both do; this guards arbitrary sub-slices).
func aligned4(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%4 == 0
}

func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// viewI32 returns b as []int32 — aliasing b on aligned little-endian
// hosts, decoding a copy otherwise. len(b) must be a multiple of 4.
func viewI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && aligned4(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// viewI64 is viewI32 for []int64; len(b) must be a multiple of 8.
func viewI64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && aligned8(b) {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// unsafeBytesI32 reinterprets vs as raw bytes for encoding (only valid
// on little-endian hosts, where the in-memory layout is the file
// layout).
func unsafeBytesI32(vs []int32) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*4)
}

// unsafeBytesI64 is unsafeBytesI32 for []int64.
func unsafeBytesI64(vs []int64) []byte {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*8)
}

// viewEdges returns b as []graph.Edge (two i32 per edge, U then W);
// len(b) must be a multiple of 8. graph.Edge is a pair of int32 fields,
// so its memory layout matches the on-disk record exactly.
func viewEdges(b []byte) []graph.Edge {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && aligned4(b) {
		return unsafe.Slice((*graph.Edge)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]graph.Edge, len(b)/8)
	for i := range out {
		out[i].U = int32(binary.LittleEndian.Uint32(b[i*8:]))
		out[i].W = int32(binary.LittleEndian.Uint32(b[i*8+4:]))
	}
	return out
}
