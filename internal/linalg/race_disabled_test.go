//go:build !race

package linalg

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
