//go:build !race

package bfs

// raceEnabled reports whether the race detector is active; the
// scale-1 measurement test is skipped under it.
const raceEnabled = false
