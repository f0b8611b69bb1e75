//go:build !race

package transport

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
