package graph

import (
	"runtime"
	"slices"
	"sync"
)

// buildCSR is the one CSR constructor under every graph this package
// makes (the package doc has its passes, cost and why the result is the
// same at any width). It turns the pending pairs of a builder into
// per-vertex sorted, duplicate-free neighbour lists over n vertices: with
// fwd, W enters U's list; with rev, U enters W's. An undirected graph is
// one call with both, a digraph's out-adjacency is fwd alone and its
// in-adjacency rev alone. pairs is read, never written or retained. bad
// is the index of the first pair with an endpoint outside [0, n), or -1.
// The per-vertex pass runs on workers goroutines (csrWorkers), 1 meaning
// inline.
func buildCSR(n int, pairs []Edge, fwd, rev bool, workers int) (offsets []int64, adj []V, bad int) {
	// offsets[v+1] counts v's entries, then becomes where v's list ends.
	offsets = make([]int64, n+1)
	for i, e := range pairs {
		if uint(e.U) >= uint(n) || uint(e.W) >= uint(n) {
			return nil, nil, i
		}
		if fwd {
			offsets[int(e.U)+1]++
		}
		if rev {
			offsets[int(e.W)+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj = make([]V, offsets[n])
	// Scatter with offsets[v] as v's write cursor: it ends where v+1's
	// list starts, so shifting the array up by one restores it.
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
		return offsets, adj, -1
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
	return offsets, adj[:at], -1
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
