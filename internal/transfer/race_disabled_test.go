//go:build !race

package transfer

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
