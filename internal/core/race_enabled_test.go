//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation ceiling skips under it, since the detector's instrumentation
// changes what escapes.
const raceEnabled = true
