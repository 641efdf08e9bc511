//go:build race

package core

// raceEnabled reports whether the race detector is active; timing
// assertions are skipped under it.
const raceEnabled = true
