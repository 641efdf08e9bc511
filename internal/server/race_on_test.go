//go:build race

package server

// raceEnabled reports whether the race detector is active; allocation
// counts are skipped under it.
const raceEnabled = true
