// Package loadgen is the fleet-scale load harness: it simulates thousands
// of concurrent mobile sessions offloading frames to an edge server and
// reports serving SLOs (latency quantiles, reject/drop rates, per-session
// fairness, queue and accelerator telemetry).
//
// Two execution modes share one workload vocabulary:
//
//   - The in-process simulator (Run, sim.go) advances a virtual clock over
//     an event queue, modelling the uplink/downlink with netsim pacing and
//     running the edge's own admission queue (edge.FairQueue under an
//     edge.AdmissionPolicy, the values edge.Scheduler holds) in front of a
//     pool of modelled accelerators. Runs are a pure function of the
//     profile and seed: two runs produce byte-identical SLO reports, which
//     is what lets BENCH_serving.json act as a committed baseline.
//   - The wall-clock drivers (package loadgen/drive) replay the same
//     profiles against the real edge.Scheduler in-process and against
//     transport.Server over real sockets, with reconciled accounting so the
//     no-silent-loss law (metrics.Ledger.Check) holds there too.
//
// A workload Profile assigns each synthetic session a clip class (payload
// and inference cost), an arrival process (steady, bursty or ramp) and a
// link shape (fast, slow or lossy netsim pacing). See DESIGN.md §14 for how
// to run the harness and read its reports.
package loadgen

import (
	"fmt"
	"math/rand"

	"edgeis/internal/edge"
	"edgeis/internal/fleet"
	"edgeis/internal/netsim"
	"edgeis/internal/segmodel"
)

// ArrivalKind selects a session's offload arrival process.
type ArrivalKind string

// Arrival processes.
const (
	// Steady offloads at a fixed per-session rate; sessions are phase-offset
	// so a fleet does not arrive in lockstep.
	Steady ArrivalKind = "steady"
	// Bursty alternates dense bursts (4x the nominal rate) with idle gaps,
	// the shape of a mobile that offloads when its tracker degrades.
	Bursty ArrivalKind = "bursty"
	// Ramp raises the rate linearly from the nominal rate to RampFactor
	// times it over the run — a fleet coming online.
	Ramp ArrivalKind = "ramp"
)

// LinkShape names a wireless link behaviour, mapped onto netsim profiles.
type LinkShape string

// Link shapes.
const (
	// Fast is the paper's best case: 5 GHz WiFi.
	Fast LinkShape = "fast"
	// Slow is the LTE profile: lower goodput, high base RTT.
	Slow LinkShape = "slow"
	// Lossy is 2.4 GHz WiFi degraded to 6% packet loss with heavy jitter.
	Lossy LinkShape = "lossy"
)

// NetProfile maps the shape to its netsim link profile.
func (s LinkShape) NetProfile() netsim.Profile {
	switch s {
	case Fast:
		return netsim.DefaultProfile(netsim.WiFi5)
	case Slow:
		return netsim.DefaultProfile(netsim.LTE)
	case Lossy:
		p := netsim.DefaultProfile(netsim.WiFi24)
		p.LossRate = 0.06
		p.JitterMs = 8
		return p
	default:
		panic(fmt.Sprintf("loadgen: unknown link shape %q", string(s)))
	}
}

// ClipClass is the serving-relevant summary of a clip preset: how many
// bytes one offloaded frame ships, how many come back, and the edge
// inference cost of a frame from this scene class. The costs are calibrated
// to the repo's segmodel latency model (pruned two-stage inference on a
// Jetson-class accelerator, 30–55 ms).
type ClipClass struct {
	Name string `json:"name"`
	// PayloadBytes is the encoded uplink frame size.
	PayloadBytes int `json:"payload_bytes"`
	// ResultBytes is the contour-encoded downlink result size.
	ResultBytes int `json:"result_bytes"`
	// InferMs is the nominal edge inference latency for this class.
	InferMs float64 `json:"infer_ms"`
	// WarpMs is the nominal non-keyframe (skip-compute) inference latency:
	// warping the session's cached keyframe features instead of recomputing
	// the backbone. Only read when Profile.KeyframeInterval enables the
	// feature cache; zero then defaults to InferMs (no saving), so a profile
	// must opt its clips into the cheaper warp cost explicitly.
	WarpMs float64 `json:"warp_ms,omitempty"`
}

// Clip classes, named after the scene presets they stand in for. WarpMs is
// calibrated like segmodel's skip-compute profiles: the warp retains the
// detection heads and drops most of the backbone, roughly 40% of the solo
// cost for these two-stage-dominated classes.
var (
	ClipStreet     = ClipClass{Name: "street", PayloadBytes: 26000, ResultBytes: 2600, InferMs: 42, WarpMs: 16}
	ClipIndoor     = ClipClass{Name: "indoor", PayloadBytes: 18000, ResultBytes: 1800, InferMs: 31, WarpMs: 12}
	ClipIndustrial = ClipClass{Name: "industrial", PayloadBytes: 34000, ResultBytes: 3400, InferMs: 55, WarpMs: 20}
)

// DefaultClips is the standard clip mix.
var DefaultClips = []ClipClass{ClipStreet, ClipIndoor, ClipIndustrial}

// DefaultLinks is the standard link mix.
var DefaultLinks = []LinkShape{Fast, Slow, Lossy}

// DefaultMaxOutstanding is the per-session client-side cap on offloads in
// flight; a session at the cap sheds new frames (counted as dropped), the
// mobile client's bounded-send-queue behaviour.
const DefaultMaxOutstanding = 4

// Profile is one reproducible workload: a fleet of synthetic sessions, each
// drawing a clip class, an arrival process and a link shape, against an
// edge with a fixed accelerator pool and admission bound.
type Profile struct {
	Name string `json:"name"`
	// Sessions is the number of concurrent synthetic mobiles.
	Sessions int `json:"sessions"`
	// Accelerators and QueueDepth shape the edge (edge.Scheduler semantics:
	// QueueDepth bounds admitted-but-undequeued requests across sessions).
	Accelerators int `json:"accelerators"`
	QueueDepth   int `json:"queue_depth"`
	// MaxOutstanding caps one session's in-flight offloads (client shed).
	MaxOutstanding int `json:"max_outstanding"`
	// DurationMs is the generation horizon: virtual ms for the simulator,
	// wall ms for the live drivers. Frames generated before the horizon are
	// always drained to an outcome, so conservation is exact.
	DurationMs float64 `json:"duration_ms"`
	// FPS is the nominal per-session offload rate.
	FPS float64 `json:"fps"`
	// Arrival selects the arrival process; BurstLen/BurstGapMs tune Bursty
	// and RampFactor tunes Ramp.
	Arrival    ArrivalKind `json:"arrival"`
	BurstLen   int         `json:"burst_len,omitempty"`
	BurstGapMs float64     `json:"burst_gap_ms,omitempty"`
	RampFactor float64     `json:"ramp_factor,omitempty"`
	// Links and Clips are the session mixes: session i uses Links[i%len]
	// and Clips[i%len], a deterministic round-robin assignment.
	Links []LinkShape `json:"links"`
	Clips []ClipClass `json:"clips"`
	// MaxBatch caps how many compatible frames (same clip class) one
	// accelerator launch may serve (edge.GatherBatch.Max on the live
	// targets). Zero or one is single dequeue: every launch is a batch of
	// one.
	MaxBatch int `json:"max_batch,omitempty"`
	// BatchWindowMs is how long an underfull batch holds its accelerator
	// waiting for companions before launching (virtual ms; the wall-clock
	// drivers scale it by TimeScale). Only meaningful with MaxBatch > 1.
	BatchWindowMs float64 `json:"batch_window_ms,omitempty"`
	// ShedPolicy selects the admission discipline at a full queue —
	// edge.AdmissionPolicy names: "reject" (default, explicit reject) or
	// "latest-wins" (shed the session's own oldest queued frame to admit
	// the fresh one).
	ShedPolicy string `json:"shed_policy,omitempty"`
	// KeyframeInterval enables per-session temporal-redundancy skip-compute
	// on the edge: one frame in every KeyframeInterval recomputes the full
	// backbone (clip InferMs) and the rest warp the session's cached
	// keyframe features (clip WarpMs). A keyframe lost to admission reject
	// or latest-wins shedding invalidates the session's cache, forcing the
	// next frame to be a keyframe. Zero or one disables the cache and keeps
	// runs byte-identical to the committed baselines.
	KeyframeInterval int `json:"keyframe_interval,omitempty"`
	// Replicas shards the edge into N independent replicas, each with its
	// own Accelerators-wide worker pool, QueueDepth-bounded admission queue
	// and round-robin ring. Sessions are placed by rendezvous hashing on
	// the session key (fleet.Rendezvous), so the simulator, the drivers and
	// a real fleet client agree on ownership from the address list alone.
	// Zero or one is a fleet of one: the same code path, one shard.
	Replicas int `json:"replicas,omitempty"`
	// Kills schedules mid-run replica failures (killing the only replica
	// leaves the sessions nowhere to go: later frames drop client-side). A
	// killed replica loses every frame it holds — queued,
	// staged, or on an accelerator — to the Migrated bucket, its sessions
	// re-place among the survivors with invalidated feature caches (the
	// next frame is a forced keyframe), and frames already in uplink
	// flight arrive at a dead socket and migrate too. Results already
	// launched on the downlink still deliver: they left the edge before it
	// died.
	Kills []ReplicaKill `json:"kills,omitempty"`
	// Seed pins every random draw in the run.
	Seed int64 `json:"seed"`
}

// ReplicaKill schedules the death of one replica at a virtual instant.
type ReplicaKill struct {
	Replica int     `json:"replica"`
	AtMs    float64 `json:"at_ms"`
}

// Normalized returns the profile with zero fields filled by the standard
// defaults — the exact configuration a run executes.
func (p Profile) Normalized() Profile { return p.withDefaults() }

// ClipFor returns session i's clip class (deterministic round-robin mix).
func (p Profile) ClipFor(i int) ClipClass {
	p = p.withDefaults()
	return p.Clips[i%len(p.Clips)]
}

// LinkFor returns session i's link shape (deterministic round-robin mix).
func (p Profile) LinkFor(i int) LinkShape {
	p = p.withDefaults()
	return p.Links[i%len(p.Links)]
}

// SessionArrivals returns session i's frame generation times in virtual ms,
// phase-offset across the fleet. Every target — the virtual-time simulator
// and the wall-clock drivers — offers exactly this schedule, so offered
// counts are comparable across targets by construction.
func (p Profile) SessionArrivals(i int) []float64 {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed*1_000_003 + int64(i)*7919 + 1))
	g := newArrivalGen(p, rng)
	periodMs := 1000 / p.FPS
	t := periodMs * float64(i) / float64(p.Sessions)
	out := []float64{t}
	for {
		next := t + g.next(t)
		if next > p.DurationMs {
			return out
		}
		out = append(out, next)
		t = next
	}
}

// SkipCompute reports whether the profile enables the keyframe feature
// cache.
func (p Profile) SkipCompute() bool { return p.KeyframeInterval > 1 }

// Sharded reports whether the profile runs a multi-replica edge fleet.
func (p Profile) Sharded() bool { return p.Replicas > 1 }

// SessionKey is session i's cross-replica identity — the key placement
// hashes and the resume handshake carries.
func (p Profile) SessionKey(i int) string { return fmt.Sprintf("sess-%d", i) }

// ReplicaName names replica r for placement hashing. The virtual fleet has
// no socket addresses, so placement hashes these stable names; a real
// deployment hashes its address list the same way.
func ReplicaName(r int) string { return fmt.Sprintf("replica-%d", r) }

// PlaceSession returns the replica index serving session i given the alive
// replica indices, using the same rendezvous placement as a fleet client so
// every execution target agrees on ownership. It returns -1 when no
// replica is alive.
func (p Profile) PlaceSession(i int, alive []int) int {
	if len(alive) == 0 {
		return -1
	}
	names := make([]string, len(alive))
	byName := make(map[string]int, len(alive))
	for j, r := range alive {
		names[j] = ReplicaName(r)
		byName[names[j]] = r
	}
	return byName[fleet.Rendezvous{}.Pick(p.SessionKey(i), names)]
}

// KeyframePolicy maps the profile onto the serving stack's skip-compute
// policy (loadgen workloads carry no contours, so the policy is purely
// interval-driven; the churn trigger never fires on guidance-less frames).
func (p Profile) KeyframePolicy() segmodel.KeyframePolicy {
	return segmodel.KeyframePolicy{Interval: p.KeyframeInterval}
}

// withDefaults fills zero fields with the standard values.
func (p Profile) withDefaults() Profile {
	if p.Sessions <= 0 {
		p.Sessions = 1
	}
	if p.Accelerators <= 0 {
		p.Accelerators = 1
	}
	if p.QueueDepth <= 0 {
		p.QueueDepth = edge.DefaultQueueDepth
	}
	if p.MaxOutstanding <= 0 {
		p.MaxOutstanding = DefaultMaxOutstanding
	}
	if p.DurationMs <= 0 {
		p.DurationMs = 1000
	}
	if p.FPS <= 0 {
		p.FPS = 1
	}
	if p.Arrival == "" {
		p.Arrival = Steady
	}
	if p.BurstLen <= 0 {
		p.BurstLen = 8
	}
	if p.BurstGapMs <= 0 {
		p.BurstGapMs = 4 * 1000 / p.FPS
	}
	if p.RampFactor <= 1 {
		p.RampFactor = 4
	}
	if len(p.Links) == 0 {
		p.Links = DefaultLinks
	}
	if len(p.Clips) == 0 {
		p.Clips = DefaultClips
	}
	if p.MaxBatch <= 0 {
		p.MaxBatch = 1
	}
	if p.BatchWindowMs < 0 {
		p.BatchWindowMs = 0
	}
	if p.ShedPolicy == "" {
		p.ShedPolicy = "reject"
	}
	if p.Replicas < 1 {
		p.Replicas = 1
	}
	if p.SkipCompute() {
		// Clips without an explicit warp cost serve non-keyframes at full
		// cost; copy before filling so the shared default clip slice is
		// never mutated.
		clips := make([]ClipClass, len(p.Clips))
		copy(clips, p.Clips)
		for i := range clips {
			if clips[i].WarpMs <= 0 {
				clips[i].WarpMs = clips[i].InferMs
			}
		}
		p.Clips = clips
	}
	return p
}

// arrivalGen produces one session's offload generation times.
type arrivalGen struct {
	kind       ArrivalKind
	periodMs   float64
	horizonMs  float64
	rampFactor float64
	burstLen   int
	burstGapMs float64
	inBurst    int
	rng        *rand.Rand
}

func newArrivalGen(p Profile, rng *rand.Rand) *arrivalGen {
	return &arrivalGen{
		kind:       p.Arrival,
		periodMs:   1000 / p.FPS,
		horizonMs:  p.DurationMs,
		rampFactor: p.RampFactor,
		burstLen:   p.BurstLen,
		burstGapMs: p.BurstGapMs,
		rng:        rng,
	}
}

// next returns the interval from a generation at time now to the session's
// next generation.
func (g *arrivalGen) next(now float64) float64 {
	switch g.kind {
	case Bursty:
		g.inBurst++
		if g.inBurst >= g.burstLen {
			g.inBurst = 0
			// Idle gap, jittered so bursts desynchronize across sessions.
			return g.burstGapMs * (0.5 + g.rng.Float64())
		}
		return g.periodMs / 4
	case Ramp:
		// Rate rises linearly from 1/period to rampFactor/period over the
		// horizon; past the horizon generation stops anyway.
		frac := now / g.horizonMs
		if frac > 1 {
			frac = 1
		}
		rate := (1 + (g.rampFactor-1)*frac) / g.periodMs
		return 1 / rate
	default: // Steady
		return g.periodMs
	}
}
