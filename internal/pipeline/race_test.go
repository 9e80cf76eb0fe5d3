//go:build race

package pipeline

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
