//go:build !race

package edge

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
