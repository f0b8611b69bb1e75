//go:build !race

package segmodel

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
