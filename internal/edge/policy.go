package edge

import (
	"fmt"
	"time"

	"edgeis/internal/segmodel"
)

// This file is the scheduler's policy layer. Admission (what happens to a
// request arriving at a full queue) and dequeue (how queued requests become
// accelerator launches) used to be inlined in the scheduler; they are now
// first-class values so serving disciplines can be swapped without touching
// the queue mechanics. The mechanics themselves — bounded queue, fair
// rotate-ring order across sessions (FairQueue, queue.go), explicit
// accounting of every outcome — are invariant: policies decide, the queue
// and the scheduler execute.

// AdmissionVerdict is an AdmissionPolicy's decision for one arriving
// request.
type AdmissionVerdict uint8

const (
	// VerdictAdmit enqueues the request.
	VerdictAdmit AdmissionVerdict = iota
	// VerdictReject refuses the arriving request (ErrQueueFull).
	VerdictReject
	// VerdictShedOldest displaces the arriving session's oldest queued
	// request (its waiter gets ErrShed) and admits the fresh one in its
	// place — the DropOldest discipline of the paper's mobile send queue,
	// applied per session on the edge.
	VerdictShedOldest
)

// AdmissionPolicy decides the fate of each request at admission time.
// FairQueue.Admit calls it (under the scheduler's lock, or in the
// simulator's virtual time) with the instantaneous queue occupancy and the
// arriving session's own queued-but-undequeued count; implementations must
// be pure decision functions (no blocking, no state).
type AdmissionPolicy interface {
	// Name identifies the policy in stats and flags ("reject",
	// "latest-wins").
	Name() string
	// Admit returns the verdict for a request arriving when queued requests
	// already occupy the admission queue of the given depth and the
	// arriving session has sessionPending queued requests of its own.
	// VerdictShedOldest is only honoured when sessionPending > 0.
	Admit(queued, depth, sessionPending int) AdmissionVerdict
}

// RejectWhenFull is the historical admission discipline: a full queue
// refuses the arriving request explicitly. It is the default and the
// deterministic mode the golden tests rely on.
type RejectWhenFull struct{}

// Name implements AdmissionPolicy.
func (RejectWhenFull) Name() string { return "reject" }

// Admit implements AdmissionPolicy.
func (RejectWhenFull) Admit(queued, depth, _ int) AdmissionVerdict {
	if queued >= depth {
		return VerdictReject
	}
	return VerdictAdmit
}

// LatestWins sheds the arriving session's own stale queued frame in place
// of rejecting the fresh one: for a real-time client the newest frame is
// the valuable one, so when the queue is full and the session already has a
// frame waiting, the waiting frame is displaced (ErrShed) and the new frame
// takes its place. A full queue with no stale frame from the same session
// still rejects — latest-wins never steals another session's slot.
type LatestWins struct{}

// Name implements AdmissionPolicy.
func (LatestWins) Name() string { return "latest-wins" }

// Admit implements AdmissionPolicy.
func (LatestWins) Admit(queued, depth, sessionPending int) AdmissionVerdict {
	if queued < depth {
		return VerdictAdmit
	}
	if sessionPending > 0 {
		return VerdictShedOldest
	}
	return VerdictReject
}

// AdmissionPolicyByName resolves the flag spelling of an admission policy.
func AdmissionPolicyByName(name string) (AdmissionPolicy, error) {
	switch name {
	case "", "reject":
		return RejectWhenFull{}, nil
	case "latest-wins":
		return LatestWins{}, nil
	default:
		return nil, fmt.Errorf("edge: unknown shed policy %q (want reject or latest-wins)", name)
	}
}

// PolicyConfig resolves the spelling edgeis-server's flags and the loadgen
// profiles share — shed policy name, max batch, gather window, keyframe
// interval — into the policy fields of a Config. maxBatch <= 1 keeps
// SingleDequeue; keyframeInterval <= 1 leaves skip-compute off.
func PolicyConfig(shedPolicy string, maxBatch int, window time.Duration, keyframeInterval int) (Config, error) {
	admission, err := AdmissionPolicyByName(shedPolicy)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Admission: admission, Keyframe: segmodel.KeyframePolicy{Interval: keyframeInterval}}
	if maxBatch > 1 {
		cfg.Dequeue = GatherBatch{Max: maxBatch, GatherWindow: window}
	}
	return cfg, nil
}

// DequeuePolicy shapes how workers turn queued requests into accelerator
// launches. FairQueue owns the fair rotate-ring mechanics; the policy
// decides how large a launch may grow and how long a worker may hold an
// underfull batch open waiting for compatible work.
type DequeuePolicy interface {
	// Name identifies the policy in stats and flags ("single", "batch").
	Name() string
	// MaxBatch is the largest launch the policy forms; 1 is single dequeue.
	MaxBatch() int
	// Window is how long a worker holds an underfull batch open for more
	// compatible jobs before launching; 0 launches immediately.
	Window() time.Duration
}

// SingleDequeue is the historical dequeue discipline: one job per launch,
// dispatched as soon as a worker is free. The default; with it the
// scheduler behaves exactly as before the policy layer existed.
type SingleDequeue struct{}

// Name implements DequeuePolicy.
func (SingleDequeue) Name() string { return "single" }

// MaxBatch implements DequeuePolicy.
func (SingleDequeue) MaxBatch() int { return 1 }

// Window implements DequeuePolicy.
func (SingleDequeue) Window() time.Duration { return 0 }

// GatherBatch forms cross-session batches: a worker takes the front job by
// the usual rotation, gathers further queued jobs of the same BatchClass in
// ring order (one per session per pass, so gathering preserves fairness),
// and if the batch is still underfull holds it open for GatherWindow before
// launching. Real accelerators amortize kernel launches across a batch (cf.
// YolactEdge's cross-frame compute sharing), which the BatchAccelerator's
// amortized launch cost models.
type GatherBatch struct {
	// Max bounds the batch size; values below 1 mean 1.
	Max int
	// GatherWindow is how long an underfull batch waits for compatible
	// work. Zero dispatches whatever is immediately available.
	GatherWindow time.Duration
}

// Name implements DequeuePolicy.
func (GatherBatch) Name() string { return "batch" }

// MaxBatch implements DequeuePolicy.
func (g GatherBatch) MaxBatch() int {
	if g.Max < 1 {
		return 1
	}
	return g.Max
}

// Window implements DequeuePolicy.
func (g GatherBatch) Window() time.Duration {
	if g.GatherWindow < 0 {
		return 0
	}
	return g.GatherWindow
}

// BatchClass is the compatibility key of the batch former: only jobs whose
// inputs share a resolution, guidance class and keyframe class can ride one
// accelerator launch, because a real batched kernel needs uniform tensor
// shapes, a guided two-stage pass evaluates a different network slice than
// a vanilla one, and a keyframe (full backbone) launch has a completely
// different cost shape than a non-keyframe (warped feature) launch —
// co-batching the two would let the cheap warp jobs hide behind a full
// backbone and destroy the amortization math.
type BatchClass struct {
	Width, Height int
	Guided        bool
	// Keyframe separates full-backbone launches from skip-compute
	// (warped-feature) launches. With skip-compute disabled every request
	// is a keyframe, so the field is constant and the batch former behaves
	// exactly as before it existed.
	Keyframe bool
}

// ClassOf computes the batch class of one request under its keyframe
// decision.
func ClassOf(in segmodel.Input, g segmodel.Guidance, keyframe bool) BatchClass {
	return BatchClass{Width: in.Width, Height: in.Height, Guided: g != nil, Keyframe: keyframe}
}

// BatchAccelerator is an Accelerator that can serve a whole batch in one
// amortized launch. Workers probe for it when a batch has more than one
// job; accelerators that do not implement it serve batches serially (and
// gain nothing from batching). The returned launchMs is the latency of the
// whole launch — every job in the batch completes together, so each reports
// launchMs as its inference latency.
type BatchAccelerator interface {
	Accelerator
	// RunBatch serves len(ins) compatible jobs in one launch. gs[i] is the
	// guidance of ins[i]; outs[i] its result.
	RunBatch(ins []segmodel.Input, gs []segmodel.Guidance) (outs []*segmodel.Result, launchMs float64)
}

// WarpAccelerator is an Accelerator that can serve non-keyframe requests
// from cached backbone features at the partial (warp) cost. Workers probe
// for it when a job's keyframe decision says skip-compute; accelerators
// that do not implement it serve the job at full cost (correct, just
// unaccelerated — the decision still counts as a cache hit in stats, since
// the cache state advanced on it).
type WarpAccelerator interface {
	Accelerator
	// RunWarped serves one non-keyframe request under its decision.
	RunWarped(in segmodel.Input, g segmodel.Guidance, d segmodel.KeyframeDecision) (out *segmodel.Result, inferMs float64)
	// RunWarpedBatch serves a batch of non-keyframe requests in one
	// amortized launch; the batch former guarantees a uniform keyframe
	// class, so ds[i] are all non-keyframes.
	RunWarpedBatch(ins []segmodel.Input, gs []segmodel.Guidance, ds []segmodel.KeyframeDecision) (outs []*segmodel.Result, launchMs float64)
}
