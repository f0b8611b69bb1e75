//go:build !race

package mask

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
