package loadgen

import (
	"fmt"
	"math"
	"strings"

	"edgeis/internal/metrics"
)

// SLO is one run's machine-readable serving report — the schema of each
// entry in BENCH_serving.json. Every frame the workload offered is
// reconciled into exactly one of served, rejected (edge admission reject),
// shed (latest-wins displacement of the session's own stale frame) or
// dropped (client-side shed or lost at teardown); ConservationOK records
// that the run's metrics.Ledger passed Check.
type SLO struct {
	Profile string `json:"profile"`
	// Target names the execution mode: "sim" (deterministic virtual time),
	// "scheduler" (in-process wall clock against edge.Scheduler) or "tcp"
	// (real sockets against transport.Server).
	Target string `json:"target"`
	Seed   int64  `json:"seed"`

	Sessions     int `json:"sessions"`
	Accelerators int `json:"accelerators"`
	QueueDepth   int `json:"queue_depth"`
	// Replicas is the edge shard count under a fleet profile (absent from
	// JSON for the single-edge profiles, whose reports predate sharding).
	// Accelerators is per replica.
	Replicas int `json:"replicas,omitempty"`

	// Frame accounting (the no-silent-loss law). Shed counts latest-wins
	// displacements; it stays zero (and absent from JSON) under the default
	// reject policy, so pre-policy reports keep their exact schema.
	// Migrated counts frames lost in flight to replica failure — accepted
	// by the client but still queued, staged, on an accelerator or in
	// uplink flight when their replica died; it stays zero (and absent)
	// outside fleet profiles.
	Offered        int  `json:"offered"`
	Served         int  `json:"served"`
	Rejected       int  `json:"rejected"`
	Shed           int  `json:"shed,omitempty"`
	Dropped        int  `json:"dropped"`
	Migrated       int  `json:"migrated,omitempty"`
	ConservationOK bool `json:"conservation_ok"`

	// Batch telemetry (zero and absent from JSON under single dequeue):
	// launches performed and the mean number of frames per launch.
	Batches       int     `json:"batches,omitempty"`
	MeanBatchSize float64 `json:"mean_batch_size,omitempty"`

	// Skip-compute telemetry (zero and absent from JSON when the profile's
	// KeyframeInterval disables the feature cache): served frames that paid
	// the full backbone vs the warp cost, and the keyframe fraction of
	// served. When enabled, KeyframesServed + WarpedServed == Served.
	KeyframesServed int     `json:"keyframes_served,omitempty"`
	WarpedServed    int     `json:"warped_served,omitempty"`
	KeyframeRate    float64 `json:"keyframe_rate,omitempty"`

	// End-to-end offload latency of served frames (generation to result
	// delivery), in ms. Quantiles use metrics.Dist's documented
	// nearest-rank estimator over its retained window.
	LatMeanMs float64 `json:"lat_mean_ms"`
	LatP50Ms  float64 `json:"lat_p50_ms"`
	LatP95Ms  float64 `json:"lat_p95_ms"`
	LatP99Ms  float64 `json:"lat_p99_ms"`
	LatMaxMs  float64 `json:"lat_max_ms"`

	// Admission-to-dequeue wait of served frames, in ms.
	WaitMeanMs float64 `json:"wait_mean_ms"`
	WaitP95Ms  float64 `json:"wait_p95_ms"`
	WaitMaxMs  float64 `json:"wait_max_ms"`

	// Queue-depth telemetry, sampled at each admission.
	QueueMeanDepth float64 `json:"queue_mean_depth"`
	QueuePeakDepth int     `json:"queue_peak_depth"`

	// UtilizationMean is the mean accelerator busy fraction over the run
	// (virtual-time targets only; wall-clock targets report 0).
	UtilizationMean float64 `json:"utilization_mean"`

	// Per-session fairness: min and max served counts across sessions and
	// their spread. Under round-robin dequeue a symmetric fleet keeps the
	// spread small; a starved session would show up as ServedMin near 0.
	ServedMin      int `json:"served_min"`
	ServedMax      int `json:"served_max"`
	FairnessSpread int `json:"fairness_spread"`

	// HorizonMs is the makespan: virtual ms (sim) or wall ms (live) from
	// start to the last delivery after drain.
	HorizonMs float64 `json:"horizon_ms"`
}

// round3 quantizes to 3 decimals so committed reports stay readable; the
// underlying computation is already deterministic.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// Account fills the frame-accounting fields from a run's settled ledger —
// the one place an SLO's counters are written, for every target. A
// wall-clock driver's ledger is delivery-side and carries the keyframe split
// its replicas counted (Ledger.Classify).
func (s *SLO) Account(l metrics.Ledger) {
	s.Offered, s.Served, s.Rejected = l.Offered(), l.Served(), l.Rejected()
	s.Shed, s.Dropped, s.Migrated = l.Shed(), l.Dropped(), l.Migrated()
	s.ConservationOK = l.Check(0) == nil
	s.KeyframesServed, s.WarpedServed = l.Keyframes(), l.Warped()
	if part := l.Keyframes() + l.Warped(); part > 0 {
		s.KeyframeRate = round3(float64(l.Keyframes()) / float64(part))
	}
}

// Check verifies both accounting laws (metrics.Ledger.Check over the
// report's own fields) and basic sanity; it returns a descriptive error
// naming the violated invariant.
func (s *SLO) Check() error {
	var l metrics.Ledger
	l.Offer(s.Offered)
	l.Serve(s.Served)
	l.Reject(s.Rejected)
	l.ShedStale(s.Shed)
	l.Drop(s.Dropped)
	l.Migrate(s.Migrated)
	l.Classify(s.KeyframesServed, s.WarpedServed)
	if err := l.Check(0); err != nil {
		return fmt.Errorf("loadgen %s/%s: %w", s.Profile, s.Target, err)
	}
	if !s.ConservationOK {
		return fmt.Errorf("loadgen %s/%s: run flagged conservation_ok=false", s.Profile, s.Target)
	}
	if s.Migrated > 0 && s.Replicas <= 1 {
		return fmt.Errorf("loadgen %s/%s: migrated %d frames with no replica fleet",
			s.Profile, s.Target, s.Migrated)
	}
	if s.ServedMin > s.ServedMax || s.FairnessSpread != s.ServedMax-s.ServedMin {
		return fmt.Errorf("loadgen %s/%s: fairness fields inconsistent: min %d max %d spread %d",
			s.Profile, s.Target, s.ServedMin, s.ServedMax, s.FairnessSpread)
	}
	return nil
}

// String renders a one-line human summary.
func (s *SLO) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-9s %5d sess %d accel: offered %6d = served %6d + rejected %6d + shed %6d + dropped %6d",
		s.Profile, s.Target, s.Sessions, s.Accelerators, s.Offered, s.Served, s.Rejected, s.Shed, s.Dropped)
	fmt.Fprintf(&b, " | lat p50/p95/p99 %.1f/%.1f/%.1f ms | queue mean %.1f peak %d | served min/max %d/%d",
		s.LatP50Ms, s.LatP95Ms, s.LatP99Ms, s.QueueMeanDepth, s.QueuePeakDepth, s.ServedMin, s.ServedMax)
	if s.Batches > 0 {
		fmt.Fprintf(&b, " | batches %d mean %.2f", s.Batches, s.MeanBatchSize)
	}
	if s.KeyframesServed+s.WarpedServed > 0 {
		fmt.Fprintf(&b, " | keyframes %d warped %d (rate %.2f)", s.KeyframesServed, s.WarpedServed, s.KeyframeRate)
	}
	if s.Replicas > 1 {
		fmt.Fprintf(&b, " | replicas %d migrated %d", s.Replicas, s.Migrated)
	}
	return b.String()
}
