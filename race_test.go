//go:build race

package bench

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
