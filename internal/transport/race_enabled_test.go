//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in; the
// allocation tests skip under it, since the detector's instrumentation
// changes what escapes.
const raceEnabled = true
