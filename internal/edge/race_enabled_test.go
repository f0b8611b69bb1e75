//go:build race

package edge

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation counts are meaningless under it.
const raceEnabled = true
