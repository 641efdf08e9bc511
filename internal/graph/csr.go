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
