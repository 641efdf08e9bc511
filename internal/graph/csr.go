package graph

import (
	"runtime"
	"slices"
	"sync"
)

// buildCSR is the one CSR constructor under every graph this package
// builds from pairs (the package doc has its passes, cost and why the
// result is the same at any width). It turns the pending pairs of a
// builder into per-vertex sorted, duplicate-free neighbour lists over n
// vertices: with fwd, W enters U's list; with rev, U enters W's. An
// undirected graph is one call with both, a digraph's out-adjacency is
// fwd alone and its in-adjacency rev alone. pairs is read, never written
// or retained. bad is the index of the first pair with an endpoint
// outside [0, n), or -1. The per-vertex pass runs on workers goroutines
// (csrWorkers), 1 meaning inline.
//
// Its passes are countRows, openRows, scatterRows and closeRows, which
// the Erdős–Rényi samplers run over a replayed draw stream instead of a
// pair list.
func buildCSR(n int, pairs []Edge, fwd, rev bool, workers int) (offsets []int64, adj []V, bad int) {
	offsets = make([]int64, n+1)
	if bad = countRows(offsets, pairs, fwd, rev); bad >= 0 {
		return nil, nil, bad
	}
	adj = openRows(offsets)
	scatterRows(offsets, adj, pairs, fwd, rev)
	offsets, adj = closeRows(offsets, adj, workers)
	return offsets, adj, -1
}

// countRows adds each pair's entries to offsets[v+1], v the row an entry
// enters (fwd: W enters U's row; rev: U enters W's). It returns the index
// of the first pair with an endpoint outside [0, len(offsets)-1), having
// counted the pairs before it, or -1.
func countRows(offsets []int64, pairs []Edge, fwd, rev bool) int {
	n := len(offsets) - 1
	for i, e := range pairs {
		if uint(e.U) >= uint(n) || uint(e.W) >= uint(n) {
			return i
		}
		if fwd {
			offsets[int(e.U)+1]++
		}
		if rev {
			offsets[int(e.W)+1]++
		}
	}
	return -1
}

// openRows turns the counts of countRows into the rows' starts and
// allocates the entries for them: offsets[v] is then v's write cursor.
func openRows(offsets []int64) []V {
	n := len(offsets) - 1
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	return make([]V, offsets[n])
}

// scatterRows writes each pair's entries at their rows' cursors,
// advancing them: a cursor ends where the next row starts.
func scatterRows(offsets []int64, adj []V, pairs []Edge, fwd, rev bool) {
	for _, e := range pairs {
		if fwd {
			adj[offsets[e.U]] = e.W
			offsets[e.U]++
		}
		if rev {
			adj[offsets[e.W]] = e.U
			offsets[e.W]++
		}
	}
}

// closeRows ends a scatter: it shifts the cursors back into offsets, then
// sorts each row and squeezes its duplicates out, on workers goroutines.
func closeRows(offsets []int64, adj []V, workers int) ([]int64, []V) {
	n := len(offsets) - 1
	copy(offsets[1:], offsets)
	offsets[0] = 0

	// Sort each list and squeeze duplicates to its front; the freed tail
	// is marked with -1 for the compaction below.
	dropped := make([]int64, workers)
	forRanges(n, workers, func(w, lo, hi int) {
		var d int64
		for v := lo; v < hi; v++ {
			ns := adj[offsets[v]:offsets[v+1]]
			i := 1
			for i < len(ns) && ns[i-1] < ns[i] {
				i++
			}
			if i >= len(ns) {
				continue // already sorted and unique (pairs arrived in CSR order)
			}
			slices.Sort(ns)
			k := 1
			for _, x := range ns[1:] {
				if x != ns[k-1] {
					ns[k] = x
					k++
				}
			}
			d += int64(len(ns) - k)
			for i := k; i < len(ns); i++ {
				ns[i] = -1
			}
		}
		dropped[w] = d
	})
	var total int64
	for _, d := range dropped {
		total += d
	}
	if total == 0 {
		return offsets, adj
	}
	var at int64
	for v := 0; v < n; v++ {
		ns := adj[offsets[v]:offsets[v+1]]
		offsets[v] = at
		for _, x := range ns {
			if x < 0 {
				break
			}
			adj[at] = x
			at++
		}
	}
	offsets[n] = at
	return offsets, adj[:at]
}

// mergeCSR returns the CSR over n vertices whose row v is the union of
// row v of (off, adj) — empty past its last vertex — and more's row v,
// each sorted and duplicate-free. more is called once per vertex range
// [lo, hi) a worker takes and returns that range's rows, asked for in
// order of v. Each row is merged twice, to count and then to write, so
// the result is all it allocates.
func mergeCSR[E V | uint64](n int, off []int64, adj []V, more func(lo int) func(v int) []E) ([]int64, []V) {
	offsets := make([]int64, n+1)
	workers := csrWorkers(len(adj))
	pass := func(write func(v int, row []V, more []E)) {
		forRanges(n, workers, func(_, lo, hi int) {
			next := more(lo)
			for v := lo; v < hi; v++ {
				var row []V
				if v+1 < len(off) {
					row = adj[off[v]:off[v+1]]
				}
				write(v, row, next(v))
			}
		})
	}
	pass(func(v int, row []V, more []E) { offsets[v+1] = int64(mergeRows(nil, row, more)) })
	out := openRows(offsets)
	pass(func(v int, row []V, more []E) { mergeRows(out[offsets[v]:], row, more) })
	return offsets, out
}

// unionRows is mergeCSR of two CSRs: row v of (aOff, a) and of (bOff, b).
func unionRows(n int, aOff []int64, a []V, bOff []int64, b []V) ([]int64, []V) {
	return mergeCSR(n, aOff, a, func(int) func(v int) []V {
		return func(v int) []V {
			if v+1 >= len(bOff) {
				return nil
			}
			return b[bOff[v]:bOff[v+1]]
		}
	})
}

// addRows is mergeCSR of (off, adj) and keys: pairKeys, ascending and
// distinct, which may name entries the rows hold already. A range's
// runs of keys are read on from the first key at or past its first row.
func addRows(off []int64, adj []V, keys []uint64) ([]int64, []V) {
	return mergeCSR(len(off)-1, off, adj, func(lo int) func(v int) []uint64 {
		j, _ := slices.BinarySearch(keys, uint64(lo)<<32)
		return func(v int) []uint64 {
			k := j
			for k < len(keys) && keys[k]>>32 == uint64(v) {
				k++
			}
			run := keys[j:k]
			j = k
			return run
		}
	})
}

// mergeRows writes the sorted union of the sorted, duplicate-free rows x
// and y to the front of dst, or only counts it when dst is nil, and
// returns its length. y's entries are vertices or pairKeys of one row,
// whose low halves are the vertices.
func mergeRows[E V | uint64](dst, x []V, y []E) int {
	k, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		w, yw := x[i], V(uint32(y[j]))
		switch {
		case w < yw:
			i++
		case w > yw:
			w = yw
			j++
		default:
			i++
			j++
		}
		if dst != nil {
			dst[k] = w
		}
		k++
	}
	if dst == nil {
		return k + len(x) - i + len(y) - j
	}
	k += copy(dst[k:], x[i:])
	for _, e := range y[j:] {
		dst[k] = V(uint32(e))
		k++
	}
	return k
}

// mapRows returns the CSR over k vertices whose row remap[u] is u's row
// in (off, adj) with each entry w mapped to remap[w], for every u that
// remap keeps (remap[u] >= 0); entries it drops (-1) are left out, and a
// row no vertex maps to is empty. remap must be one-to-one on what it
// keeps. A remap that also keeps the order of those vertices keeps each
// row sorted; for any other, set sortRows. Each row is read twice, to
// count and then to write, so the result is all it allocates.
func mapRows(off []int64, adj []V, remap []V, k int, sortRows bool) ([]int64, []V) {
	n := len(off) - 1
	offsets := make([]int64, k+1)
	workers := csrWorkers(len(adj))
	forRanges(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if remap[u] < 0 {
				continue
			}
			var c int64
			for _, w := range adj[off[u]:off[u+1]] {
				if remap[w] >= 0 {
					c++
				}
			}
			offsets[remap[u]+1] = c
		}
	})
	out := openRows(offsets)
	forRanges(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if remap[u] < 0 {
				continue
			}
			row := out[offsets[remap[u]]:offsets[remap[u]+1]]
			i := 0
			for _, w := range adj[off[u]:off[u+1]] {
				if x := remap[w]; x >= 0 {
					row[i] = x
					i++
				}
			}
			if sortRows {
				slices.Sort(row)
			}
		}
	})
	return offsets, out
}

// pairKey packs the CSR entry "w in u's list" as u<<32 | w, so that
// ascending keys are entries in CSR order.
func pairKey(u, w V) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(w)) }

// insertCSR merges entries into a built CSR in place: keys are pairKeys,
// ascending, distinct and absent from the lists, and adj must have room
// for them within its capacity (buildCSR's squeeze leaves one slot per
// dropped duplicate). Rows are walked from the last one backwards, each
// merged from its end into its shifted place, so nothing is overwritten
// before it is read; offsets are rewritten and the grown adj returned.
func insertCSR(offsets []int64, adj []V, keys []uint64) []V {
	at := int64(len(adj) + len(keys)) // every slot from at on is final
	adj = adj[:at]
	j := len(keys) - 1
	for v := len(offsets) - 2; j >= 0; v-- {
		lo, hi := offsets[v], offsets[v+1]
		offsets[v+1] = at
		for ; j >= 0 && keys[j]>>32 == uint64(v); j-- {
			w := V(uint32(keys[j]))
			for hi > lo && adj[hi-1] > w {
				hi--
				at--
				adj[at] = adj[hi]
			}
			at--
			adj[at] = w
		}
		at -= hi - lo
		copy(adj[at:], adj[lo:hi])
	}
	return adj
}

// inRow reports whether w is in ns, a sorted row of a graph on n
// vertices. The first probe is where w would sit if the row were spread
// evenly over [0, n), then the search gallops out from it and bisects
// the bracket it finds. On an Erdős–Rényi row, whose entries are uniform,
// that touches one or two cache lines of the row where a plain binary
// search misses the cache on each of its log₂ d probes — the samplers'
// top-up asks this millions of times on a dense graph. An uneven row
// still takes O(log d) probes.
func inRow(ns []V, w V, n int) bool {
	d := len(ns)
	if d == 0 {
		return false
	}
	i := min(max(int(int64(w)*int64(d)/int64(n)), 0), d-1)
	lo, hi := 0, d // w, if present, is in ns[lo:hi]
	switch x := ns[i]; {
	case x == w:
		return true
	case x < w:
		lo = i + 1
		for step := 1; i+step < d; step *= 2 {
			if ns[i+step] >= w {
				hi = i + step + 1
				break
			}
			lo = i + step + 1
		}
	default:
		hi = i
		for step := 1; i-step >= 0; step *= 2 {
			if ns[i-step] <= w {
				lo = i - step
				break
			}
			hi = i - step
		}
	}
	_, found := slices.BinarySearch(ns[lo:hi], w)
	return found
}

// csrWorkers sizes buildCSR's fan-out: GOMAXPROCS, but one worker per
// 64 Ki pairs at most, so a small graph is built inline.
func csrWorkers(pairs int) int {
	return min(runtime.GOMAXPROCS(0), 1+pairs/(1<<16))
}

// forRanges splits [0, n) into one contiguous range per worker and runs
// fn(worker, lo, hi) on each, concurrently when there is more than one.
// It returns when all have; an empty range is not run.
func forRanges(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
