package graph

import (
	"math/bits"
	"slices"
)

// radixMin is the number of keys below which SortKeys always hands them
// to a comparison sort: under a few dozen keys, the 2 KB of counts per
// byte cost more than the whole comparison sort.
const radixMin = 48

// SortKeys sorts packed keys in ascending order, deciding the order by
// the bytes from byte low (0 = least significant) up: a caller whose
// keys are distinct above byte low — an id in the high half, a payload
// below — names it, and the payload bytes are carried, not sorted by.
// The order is then that of the whole keys.
//
// It is a least-significant-digit radix sort, one pass per byte, over
// only the bytes in which the keys differ, with the counts of every
// byte taken in one read of the keys. A pass touches every key twice
// (count, then place) where a comparison sort compares each about
// log₂ n times, each compare a branch it may mispredict; measured on
// pairs of ids spread over 120 000 vertices, the radix sort wins once
// passes ≤ log₂ n − 3 (six passes from about 500 keys, three from
// about 64), so that is when it runs, on at least radixMin keys.
// Otherwise slices.Sort does, and keys that do not differ at all are
// already sorted. buf is scratch for
// the passes, grown to len(keys) as needed; the sort returns it for
// reuse, so a caller that keeps it sorts without allocating once it has
// grown.
func SortKeys(keys []uint64, low uint, buf []uint64) []uint64 {
	n := len(keys)
	if n < radixMin {
		slices.Sort(keys)
		return buf
	}
	var differ uint64
	for _, k := range keys {
		differ |= k ^ keys[0]
	}
	differ &^= 1<<(8*low) - 1
	passes := 0
	for d := differ; d != 0; d >>= 8 {
		if d&0xff != 0 {
			passes++
		}
	}
	if passes == 0 {
		return buf
	}
	if passes > bits.Len(uint(n))-1-3 {
		slices.Sort(keys)
		return buf
	}
	if cap(buf) < n {
		buf = growKeys(buf, n)
	}
	radixSort(keys, differ, buf[:n])
	return buf
}

// radixSort sorts keys by the bytes set in differ, through buf, as long
// as keys. Its counts take 8 KB of stack: it is kept out of line so that
// only a goroutine that radix-sorts needs a stack that large, not every
// one that sorts an answer.
//
//go:noinline
func radixSort(keys []uint64, differ uint64, buf []uint64) {
	var at [8][256]uint32
	for _, k := range keys {
		at[0][k&0xff]++
		at[1][k>>8&0xff]++
		at[2][k>>16&0xff]++
		at[3][k>>24&0xff]++
		at[4][k>>32&0xff]++
		at[5][k>>40&0xff]++
		at[6][k>>48&0xff]++
		at[7][k>>56]++
	}
	src, dst := keys, buf
	for i := range at {
		shift := 8 * uint(i)
		if differ>>shift&0xff == 0 {
			continue
		}
		c := &at[i]
		var sum uint32
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		for _, k := range src {
			b := k >> shift & 0xff
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// growKeys returns a buffer of capacity at least n. It is kept out of
// line so that the escape gate charges its allocation here and not to
// the callers of SortKeys, whose recycled buffers are large enough once
// warm.
//
//go:noinline
func growKeys(buf []uint64, n int) []uint64 {
	return slices.Grow(buf[:0], n)
}
