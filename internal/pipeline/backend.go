package pipeline

import (
	"time"

	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
)

// BackendStats is the accounting every backend reports, so simulated and
// live runs describe offload loss and edge work identically. Results,
// DroppedOffloads and MigratedOffloads are a backend's metrics.Ledger seen
// from this boundary (served, dropped, migrated), filled in by WithLedger;
// the other fields are not conserved quantities and are plain tallies.
type BackendStats struct {
	// Submitted counts offloads the backend accepted.
	Submitted int
	// DroppedOffloads counts offloads lost to queue overflow (either end).
	DroppedOffloads int
	// DiscardedResults counts results thrown away because their frame index
	// was out of range for the running clip.
	DiscardedResults int
	// MigratedOffloads is the ledger's migrated bucket: offloads accepted
	// by an edge that died before serving them. The single simulated edge
	// never dies, so it reads zero there.
	MigratedOffloads int
	// Results counts inference results produced (sim) or received (live).
	Results int
	// InferMsSum accumulates edge inference latency across Results.
	InferMsSum float64
	// UplinkBytes and DownlinkBytes account the modelled wire volume.
	UplinkBytes   int
	DownlinkBytes int
}

// WithLedger returns s with the conserved fields read from l.
func (s BackendStats) WithLedger(l metrics.Ledger) BackendStats {
	s.Results, s.DroppedOffloads, s.MigratedOffloads = l.Served(), l.Dropped(), l.Migrated()
	return s
}

// ScheduledResult is an edge result with its simulated delivery time. Live
// backends stamp results with the poll time — the earliest simulated instant
// the mobile could observe them.
type ScheduledResult struct {
	At  float64
	Res EdgeResult
}

// EdgeBackend is the edge half of the offload loop: the engine submits
// encoded frames and receives asynchronous EdgeResult deliveries. A backend
// owns its queue discipline (depth, drop policy) and reports drops and
// discards through Stats, so every engine run accounts offload loss the same
// way regardless of what serves the inferences.
//
// Submit and Advance return result deliveries as soon as their timing is
// known; the engine turns them into edge-result events on its scheduler.
// All methods are called from the engine goroutine only.
type EdgeBackend interface {
	// Name identifies the backend in reports.
	Name() string
	// Bind hands the backend the rendered clip and the strategy's preferred
	// queue depth before the run starts (depth <= 0 keeps the default).
	Bind(frames []*scene.Frame, queueDepth int)
	// Submit ships an offload at simulated time sendAt.
	Submit(req *OffloadRequest, sendAt float64) []ScheduledResult
	// Advance drives backend bookkeeping to simulated time now: simulated
	// backends service their queue; live backends drain their socket without
	// blocking. Returned results may be due at or before now.
	Advance(now float64) []ScheduledResult
	// Outstanding reports offloads submitted but not yet surfaced as results.
	Outstanding() int
	// Wait blocks up to d of wall-clock time for a result to become
	// available. Simulated backends return false immediately: their results
	// only move on Advance.
	Wait(d time.Duration) bool
	// Stats returns the accounting so far.
	Stats() BackendStats
	// Close releases backend resources.
	Close() error
}

// waitingOffload is a request queued for the simulated edge.
type waitingOffload struct {
	arrival float64
	req     *OffloadRequest
	// decision is the keyframe classification made at Submit time; it rides
	// the queue so the launch charges the matching cost shape.
	decision segmodel.KeyframeDecision
}

// SimBackend is the simulated edge: an uplink and downlink from netsim and a
// segmodel edge model, with a bounded latest-wins queue in front of one
// accelerator that serves one offload per launch. It reproduces the legacy
// Engine.Run scheduling exactly — the order of link and model calls is
// load-bearing for determinism, since links carry RNG state and a busy
// horizon. Accelerator pools, batching and failover are modelled by the
// serving stack's simulator (internal/loadgen), not here.
type SimBackend struct {
	model      *segmodel.Model
	inferScale float64
	uplink     *netsim.Link
	downlink   *netsim.Link
	seed       int64
	frames     []*scene.Frame
	queueDepth int
	// freeAt is the accelerator's busy horizon; waiting offloads are
	// served FIFO as it frees up.
	freeAt  float64
	waiting []waitingOffload
	// keyframe is the skip-compute state of the backend's single client
	// stream (the engine drives one mobile).
	keyframe segmodel.KeyframeStream
	// led accounts every Submit (offered) to a result or an overflow drop;
	// stats holds the rest.
	led   metrics.Ledger
	stats BackendStats
}

// SimBackendConfig assembles a simulated edge.
type SimBackendConfig struct {
	// Model is the edge model; nil defaults to Mask R-CNN. The backend
	// runs it unsynchronized, so it must not be shared with anything
	// running at the same time.
	Model *segmodel.Model
	// InferScale multiplies inference latency (device.Profile.InferScale);
	// zero means 1.
	InferScale float64
	// Profile is the link behaviour for both directions.
	Profile netsim.Profile
	// Seed derives the two link RNG streams and per-frame model noise.
	Seed int64
	// Keyframe enables temporal-redundancy skip-compute: non-keyframes warp
	// the stream's cached backbone pyramid at partial cost instead of
	// recomputing it. The zero policy keeps every frame a keyframe and the
	// schedule byte-identical to a build without the feature cache.
	Keyframe segmodel.KeyframePolicy
}

// NewSimBackend builds the simulated edge backend.
func NewSimBackend(cfg SimBackendConfig) *SimBackend {
	if cfg.Model == nil {
		cfg.Model = segmodel.New(segmodel.MaskRCNN)
	}
	if cfg.InferScale == 0 {
		cfg.InferScale = 1
	}
	return &SimBackend{
		model:      cfg.Model,
		inferScale: cfg.InferScale,
		uplink:     netsim.NewLink(cfg.Profile, cfg.Seed+1),
		downlink:   netsim.NewLink(cfg.Profile, cfg.Seed+2),
		seed:       cfg.Seed,
		queueDepth: 1,
		keyframe:   segmodel.KeyframeStream{Policy: cfg.Keyframe},
	}
}

// Name implements EdgeBackend.
func (b *SimBackend) Name() string { return "sim" }

// Bind implements EdgeBackend.
func (b *SimBackend) Bind(frames []*scene.Frame, queueDepth int) {
	b.frames = frames
	if queueDepth > 0 {
		b.queueDepth = queueDepth
	}
}

// Submit models the uplink and enqueues at the edge. Queue overflow drops
// the oldest waiting offload (latest-wins) and counts it; a dropped keyframe
// additionally invalidates the feature cache, since the pyramid later frames
// were decided to warp from was never computed.
func (b *SimBackend) Submit(req *OffloadRequest, sendAt float64) []ScheduledResult {
	b.led.Offer(1)
	b.stats.Submitted++
	b.stats.UplinkBytes += req.PayloadBytes
	// Classify at submit time, in send order. With the policy off the
	// decision is constant and no model input is built here.
	d := segmodel.KeyframeDecision{Keyframe: true, Reason: segmodel.KeyDisabled}
	if b.keyframe.Policy.Enabled() {
		d = b.keyframe.Decide(modelInput(b.frames, b.seed, req), req.Guidance)
	}
	upMs := b.uplink.TransferMs(sendAt, req.PayloadBytes)
	arrive := sendAt + upMs
	out := b.advance(arrive)
	item := waitingOffload{arrival: arrive, req: req, decision: d}
	if b.freeAt <= arrive && len(b.waiting) == 0 {
		return b.start(out, item, arrive)
	}
	b.waiting = append(b.waiting, item)
	if len(b.waiting) > b.queueDepth {
		stale := b.waiting[0]
		b.waiting = b.waiting[1:]
		b.led.Drop(1)
		b.keyframe.Lost(stale.decision)
	}
	return out
}

// Advance implements EdgeBackend: it services waiting requests (FIFO) while
// the edge is free.
func (b *SimBackend) Advance(now float64) []ScheduledResult { return b.advance(now) }

func (b *SimBackend) advance(now float64) []ScheduledResult {
	var out []ScheduledResult
	for len(b.waiting) > 0 {
		item := b.waiting[0]
		at := b.freeAt
		if item.arrival > at {
			at = item.arrival
		}
		if at > now {
			break
		}
		b.waiting = b.waiting[1:]
		out = b.start(out, item, at)
	}
	return out
}

// start serves item on the accelerator from instant at: the keyframe
// decision picks the cost shape (keyframes run the full model, for which
// RunWarped is exactly Run; non-keyframes charge the partial warp cost), the
// accelerator is busy for the scaled latency, and the result rides the
// downlink and is appended to out.
func (b *SimBackend) start(out []ScheduledResult, item waitingOffload, at float64) []ScheduledResult {
	in := modelInput(b.frames, b.seed, item.req)
	res := b.model.RunWarped(in, item.req.Guidance, item.decision)
	inferMs := res.TotalMs() * b.inferScale
	b.freeAt = at + inferMs
	b.stats.InferMsSum += inferMs
	b.led.Serve(1)
	resultBytes := 256
	for _, d := range res.Detections {
		if d.Mask != nil {
			resultBytes += 16 + d.Mask.BoundingBox().Area()/64
		} else {
			resultBytes += 32
		}
	}
	b.stats.DownlinkBytes += resultBytes
	downMs := b.downlink.TransferMs(b.freeAt, resultBytes)
	return append(out, ScheduledResult{
		At: b.freeAt + downMs,
		Res: EdgeResult{
			FrameIndex: item.req.FrameIndex,
			Detections: res.Detections,
			InferMs:    inferMs,
		},
	})
}

// modelInput converts the offloaded frame's ground truth plus the encode
// quality map into the simulated model's input.
func modelInput(frames []*scene.Frame, seed int64, req *OffloadRequest) segmodel.Input {
	f := frames[req.FrameIndex]
	objs := make([]segmodel.ObjectTruth, 0, len(f.Objects))
	for _, gt := range f.Objects {
		objs = append(objs, segmodel.ObjectTruth{
			ObjectID: gt.ObjectID,
			Label:    int(gt.Class),
			Visible:  gt.Visible,
			Box:      gt.Box,
		})
	}
	return segmodel.Input{
		Width:   f.Camera.Width,
		Height:  f.Camera.Height,
		Objects: objs,
		Quality: req.Quality,
		Seed:    seed*1_000_003 + int64(req.FrameIndex),
	}
}

// Outstanding implements EdgeBackend.
func (b *SimBackend) Outstanding() int { return len(b.waiting) }

// Wait implements EdgeBackend: simulated results only move on Advance.
func (b *SimBackend) Wait(time.Duration) bool { return false }

// Stats implements EdgeBackend.
func (b *SimBackend) Stats() BackendStats { return b.stats.WithLedger(b.led) }

// Close implements EdgeBackend.
func (b *SimBackend) Close() error { return nil }
