package segmodel

// Batched inference cost model. Real accelerators amortize the fixed part
// of a kernel launch (weight fetch, scheduling, backbone setup) across the
// frames of a batch: running B compatible frames together costs far less
// than B solo launches (cf. YolactEdge's cross-frame compute sharing). The
// scheduler's batch former relies on this to turn cross-session gathering
// into throughput.

// BatchMarginalFrac is the fraction of a frame's solo latency that a batch
// launch pays for each frame beyond the slowest one. The slowest frame is
// charged in full (the launch cannot finish before its longest member); the
// rest ride the already-amortized launch at this marginal rate. At 0.5 a
// batch of 8 equal frames costs 4.5 solo-latencies instead of 8 — a 1.78x
// throughput gain.
const BatchMarginalFrac = 0.5

// BatchMs returns the amortized latency of serving the given solo
// latencies in one batch launch: the slowest frame in full plus the
// marginal fraction of every other. The result is order-independent, and a
// single-element batch costs exactly its solo latency.
//
// Negative solo latencies are clamped to zero before amortizing: a
// miscalibrated cost model (e.g. a negative non-keyframe warp cost) must
// never yield a negative launch time, and the clamp keeps the result
// monotone in batch size.
func BatchMs(soloMs []float64) float64 {
	if len(soloMs) == 0 {
		return 0
	}
	max, sum := 0.0, 0.0
	for _, ms := range soloMs {
		if ms < 0 {
			ms = 0
		}
		if ms > max {
			max = ms
		}
		sum += ms
	}
	return max + BatchMarginalFrac*(sum-max)
}
