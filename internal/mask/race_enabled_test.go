//go:build race

package mask

// raceEnabled reports whether the race detector is compiled in. Allocation
// pins skip under it: the detector makes sync.Pool drop a share of Puts at
// random, so pooled scratch is re-allocated on some calls.
const raceEnabled = true
