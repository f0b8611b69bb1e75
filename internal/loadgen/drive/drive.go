// Package drive replays loadgen profiles against the real serving stack on
// the wall clock: RunScheduler paces the sessions into one in-process
// edge.Scheduler per replica, RunTCP pushes the same frames through
// fleet.FleetClient sockets into one transport.Server per replica. An
// unsharded profile is a fleet of one — there is no second code path. Both
// replay the exact generation schedule of the virtual-time simulator
// (Profile.SessionArrivals), honour the profile's policies and replica kill
// schedule, classify every offered frame into served / rejected / shed /
// dropped / migrated, and reconcile their own accounting against the summed
// per-replica scheduler counters — the wall-clock half of the no-silent-loss
// law. Latency figures here include host scheduling jitter; the
// deterministic numbers live in the simulator (loadgen.Run).
package drive

import (
	"math"
	"sync"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/loadgen"
	"edgeis/internal/metrics"
	"edgeis/internal/segmodel"
)

// Options tunes a wall-clock run.
type Options struct {
	// TimeScale stretches the profile's schedule: one virtual ms of
	// generation time takes TimeScale wall ms. Below 1 compresses a long
	// profile into a short wall run; 0 means 1 (real time).
	TimeScale float64
	// Occupancy is how long one inference holds its accelerator, as a
	// fraction of the clip's nominal InferMs (scheduler target) or of the
	// model's reported latency (TCP target) in wall time. 0 means
	// DefaultOccupancy; contention — queue growth, rejects — only appears
	// when this is big enough that offered load exceeds pool capacity.
	Occupancy float64
	// DrainTimeout bounds the wait for in-flight offloads after the
	// generation horizon (TCP target); offloads still unresolved at the
	// deadline are counted dropped. 0 means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Addr points the TCP target at an already-running server ("host:port"):
	// a one-address fleet with no in-process servers, so no replica kills
	// and no reconciliation against server-side counters. Empty starts one
	// in-process transport.Server per replica on loopback sockets.
	Addr string
}

// Default Options values.
const (
	DefaultOccupancy    = 0.25
	DefaultDrainTimeout = 5 * time.Second
)

func (o Options) withDefaults() Options {
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}
	if o.Occupancy <= 0 {
		o.Occupancy = DefaultOccupancy
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = DefaultDrainTimeout
	}
	return o
}

// agg accumulates fleet-wide accounting from the session goroutines: each
// session keeps its own ledger and absorbs it when it finishes, latencies
// are recorded as results arrive. Both methods take a.mu, so callers must
// not hold it — or any other lock.
type agg struct {
	mu       sync.Mutex
	led      metrics.Ledger
	servedBy []int
	lat      metrics.Dist
}

func (a *agg) noteLatency(latMs float64) {
	a.mu.Lock()
	a.lat.Add(latMs)
	a.mu.Unlock()
}

func (a *agg) absorb(sess int, l metrics.Ledger) {
	a.mu.Lock()
	a.led.Add(l)
	a.servedBy[sess] = l.Served()
	a.mu.Unlock()
}

// fairness returns the per-session served extremes.
func (a *agg) fairness() (min, max int) {
	for i, n := range a.servedBy {
		if i == 0 || n < min {
			min = n
		}
		if i == 0 || n > max {
			max = n
		}
	}
	return min, max
}

// sleepUntil parks the goroutine until virtual time virtMs on the run's
// scaled wall clock.
func sleepUntil(start time.Time, virtMs, scale float64) {
	d := time.Until(start.Add(time.Duration(virtMs * scale * float64(time.Millisecond))))
	if d > 0 {
		time.Sleep(d)
	}
}

// msSince is wall milliseconds since start.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// clipAccelerator is the scheduler target's accelerator: it holds the
// worker for a fraction of the session clip's nominal inference latency.
// The session index rides in Input.Seed.
type clipAccelerator struct {
	p     loadgen.Profile
	scale float64
	frac  float64
}

func (a *clipAccelerator) soloMs(in segmodel.Input) float64 {
	return a.p.ClipFor(int(in.Seed)).InferMs
}

func (a *clipAccelerator) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	inferMs := a.soloMs(in)
	time.Sleep(time.Duration(inferMs * a.frac * a.scale * float64(time.Millisecond)))
	return nil, inferMs
}

// RunBatch implements edge.BatchAccelerator: one gathered launch holds the
// worker for the amortized batch cost instead of the serial sum, which is
// what lets the batch former show up as wall-clock throughput here.
func (a *clipAccelerator) RunBatch(ins []segmodel.Input, gs []segmodel.Guidance) ([]*segmodel.Result, float64) {
	solos := make([]float64, len(ins))
	for i, in := range ins {
		solos[i] = a.soloMs(in)
	}
	launchMs := segmodel.BatchMs(solos)
	time.Sleep(time.Duration(launchMs * a.frac * a.scale * float64(time.Millisecond)))
	return make([]*segmodel.Result, len(ins)), launchMs
}

// warpMs is the cost of one job under its keyframe decision: keyframes pay
// the clip's full inference latency, non-keyframes its warp latency.
func (a *clipAccelerator) warpMs(in segmodel.Input, d segmodel.KeyframeDecision) float64 {
	if d.Keyframe {
		return a.soloMs(in)
	}
	return a.p.ClipFor(int(in.Seed)).WarpMs
}

// RunWarped implements edge.WarpAccelerator: a non-keyframe holds the
// worker for the clip's warp cost, which is where skip-compute buys
// wall-clock throughput on this target.
func (a *clipAccelerator) RunWarped(in segmodel.Input, g segmodel.Guidance, d segmodel.KeyframeDecision) (*segmodel.Result, float64) {
	inferMs := a.warpMs(in, d)
	time.Sleep(time.Duration(inferMs * a.frac * a.scale * float64(time.Millisecond)))
	return nil, inferMs
}

// RunWarpedBatch implements edge.WarpAccelerator for gathered launches.
func (a *clipAccelerator) RunWarpedBatch(ins []segmodel.Input, gs []segmodel.Guidance, ds []segmodel.KeyframeDecision) ([]*segmodel.Result, float64) {
	solos := make([]float64, len(ins))
	for i, in := range ins {
		solos[i] = a.warpMs(in, ds[i])
	}
	launchMs := segmodel.BatchMs(solos)
	time.Sleep(time.Duration(launchMs * a.frac * a.scale * float64(time.Millisecond)))
	return make([]*segmodel.Result, len(ins)), launchMs
}

// edgeConfig resolves the profile's policies onto a scheduler
// configuration; the gather window stretches with the run's TimeScale just
// like the generation schedule does.
func edgeConfig(p loadgen.Profile, o Options) (edge.Config, error) {
	window := time.Duration(p.BatchWindowMs * o.TimeScale * float64(time.Millisecond))
	cfg, err := edge.PolicyConfig(p.ShedPolicy, p.MaxBatch, window, p.KeyframeInterval)
	cfg.Workers = p.Accelerators
	cfg.QueueDepth = p.QueueDepth
	return cfg, err
}

// newSLO fills the accounting and latency half of the report; replicas is
// the schedulers' summed ledger (zero against an external server), whose
// keyframe split the delivery-side accounting adopts. Replicas is only set under a
// sharded profile, matching the simulator's report schema.
func newSLO(p loadgen.Profile, target string, a *agg, replicas metrics.Ledger, horizonMs float64) *loadgen.SLO {
	min, max := a.fairness()
	slo := &loadgen.SLO{
		Profile:        p.Name,
		Target:         target,
		Seed:           p.Seed,
		Sessions:       p.Sessions,
		Accelerators:   p.Accelerators,
		QueueDepth:     p.QueueDepth,
		LatMeanMs:      round3(a.lat.Mean()),
		LatP50Ms:       round3(a.lat.Quantile(0.50)),
		LatP95Ms:       round3(a.lat.Quantile(0.95)),
		LatP99Ms:       round3(a.lat.Quantile(0.99)),
		LatMaxMs:       round3(a.lat.Max()),
		ServedMin:      min,
		ServedMax:      max,
		FairnessSpread: max - min,
		HorizonMs:      round3(horizonMs),
	}
	if p.Sharded() {
		slo.Replicas = p.Replicas
	}
	l := a.led
	l.Classify(replicas.Keyframes(), replicas.Warped())
	slo.Account(l)
	return slo
}

// round3 matches the simulator's report quantization.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
