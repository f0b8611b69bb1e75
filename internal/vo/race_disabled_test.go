//go:build !race

package vo

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
