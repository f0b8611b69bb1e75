// Package pipeline is the end-to-end engine: a simulated clock drives camera
// frames at 30 fps through a mobile-side strategy (edgeIS or a baseline) and
// an EdgeBackend serving inference — the simulated model+netsim backend or
// a real TCP edge server. The engine accounts for mobile compute time,
// encode time, transmission, edge queueing and inference, and scores what
// is actually ON SCREEN at each frame's display deadline against ground
// truth — reproducing the
// latency-accumulates-into-staleness coupling the paper describes
// ("latency longer than 33ms accumulates and eventually results in a
// delayed mask rendering on a later frame").
//
// Run is an event-queue scheduler: frame arrivals, display deadlines and
// edge-result deliveries are events on a min-heap, popped in (time, kind)
// order. Equal-time ties resolve as result < deadline < arrival, which is
// exactly the order the legacy frame loop processed them in.
package pipeline

import (
	"time"

	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
)

// FrameBudgetMs is the per-frame display budget at the 30 fps camera rate.
const FrameBudgetMs = 1000.0 / scene.FrameRate

// OffloadRequest asks the engine to ship a frame to the edge.
type OffloadRequest struct {
	FrameIndex int
	// PayloadBytes is the encoded frame size on the uplink.
	PayloadBytes int
	// EncodeMs is mobile-side encode time, charged to the frame budget.
	EncodeMs float64
	// Quality is the decoded per-pixel fidelity handed to the model.
	Quality func(x, y int) float64
	// Guidance optionally accelerates the edge model (edgeIS's CIIA).
	Guidance segmodel.Guidance
}

// EdgeResult is an inference result delivered back to the mobile.
type EdgeResult struct {
	FrameIndex int
	Detections []segmodel.Detection
	InferMs    float64
}

// FrameOutput is what the strategy produced for one processed frame.
type FrameOutput struct {
	// Masks become visible once the frame's compute finishes.
	Masks []metrics.PredictedMask
	// ComputeMs is the mobile compute charged for this frame (excluding
	// encode, which is charged via the OffloadRequest).
	ComputeMs float64
	// Offloads ship frames to the edge (usually at most one; the edgeIS
	// initializer ships the two init frames together).
	Offloads []*OffloadRequest
}

// Strategy is a complete mobile-side system under test.
type Strategy interface {
	// Name identifies the system in reports.
	Name() string
	// ProcessFrame handles a camera frame picked up at simulated time
	// nowMs, with the features extracted from it.
	ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) FrameOutput
	// HandleEdgeResult delivers an edge result at simulated time nowMs.
	HandleEdgeResult(res EdgeResult, f *scene.Frame, nowMs float64)
}

// Config assembles an experiment.
type Config struct {
	World      *scene.World
	Camera     geom.Camera
	Trajectory scene.Trajectory
	Frames     int
	// CameraSpeed feeds the extractor's motion-blur model (m/s).
	CameraSpeed float64
	// Network medium for both directions (simulated backend only).
	Medium netsim.Medium
	// EdgeInferScale multiplies inference latency (device.Profile.InferScale);
	// zero means 1.
	EdgeInferScale float64
	// EdgeKeyframe enables the simulated edge's temporal-redundancy
	// skip-compute (simulated backend only): non-keyframes warp the cached
	// backbone pyramid at partial cost. The zero policy keeps every frame a
	// keyframe and the run byte-identical to a cache-free build.
	EdgeKeyframe segmodel.KeyframePolicy
	// Seed drives all stochastic components.
	Seed int64
	// Backend overrides the edge serving the run. Nil builds the default
	// simulated backend — Mask R-CNN behind the Medium's default link —
	// from Seed; a degraded link or a live TCP adapter plugs in here.
	Backend EdgeBackend
	// OnFrame, when non-nil, observes each frame's eval as its display
	// deadline resolves — progress reporting and wall-clock pacing hook.
	OnFrame func(ev FrameEval)
}

// FrameEval is the per-frame outcome.
type FrameEval struct {
	Index int
	// IoUs holds one entry per visible ground-truth object.
	IoUs []float64
	// LatencyMs is the mobile processing latency of the frame (or the
	// budget, for dropped frames).
	LatencyMs float64
	// Dropped marks frames the mobile could not process in time.
	Dropped bool
	// Offloaded marks frames shipped to the edge.
	Offloaded bool
	// StalenessMs is the age of the displayed output at display time.
	StalenessMs float64
}

// RunStats aggregates engine-level accounting.
type RunStats struct {
	Frames          int
	Offloads        int
	DroppedFrames   int
	UplinkBytes     int
	DownlinkBytes   int
	EdgeInferMsSum  float64
	EdgeResultCount int
	MobileBusyMsSum float64
	// DroppedOffloads counts offloads lost to edge/uplink queue overflow —
	// the silent `waiting = waiting[1:]` loss of the legacy loop, now
	// accounted identically by simulated and live backends.
	DroppedOffloads int
	// DiscardedResults counts edge results thrown away because their frame
	// index was out of range for the clip.
	DiscardedResults int
	// MigratedOffloads is the backend's migrated bucket (BackendStats):
	// offloads lost in flight to an edge failure.
	MigratedOffloads int
}

// Add accumulates another run's accounting into s.
func (s *RunStats) Add(o RunStats) {
	s.Frames += o.Frames
	s.Offloads += o.Offloads
	s.DroppedFrames += o.DroppedFrames
	s.UplinkBytes += o.UplinkBytes
	s.DownlinkBytes += o.DownlinkBytes
	s.EdgeInferMsSum += o.EdgeInferMsSum
	s.EdgeResultCount += o.EdgeResultCount
	s.MobileBusyMsSum += o.MobileBusyMsSum
	s.DroppedOffloads += o.DroppedOffloads
	s.DiscardedResults += o.DiscardedResults
	s.MigratedOffloads += o.MigratedOffloads
}

// Engine runs one strategy through one scenario.
type Engine struct {
	cfg       Config
	strategy  Strategy
	extractor *feature.Extractor
	frames    []*scene.Frame
	backend   EdgeBackend
}

// NewEngine prepares a run. The frames are pre-rendered so repeated runs
// (ablations over the same scenario) reuse identical ground truth.
func NewEngine(cfg Config, strategy Strategy) *Engine {
	backend := cfg.Backend
	if backend == nil {
		backend = NewSimBackend(SimBackendConfig{
			InferScale: cfg.EdgeInferScale,
			Profile:    netsim.DefaultProfile(cfg.Medium),
			Seed:       cfg.Seed,
			Keyframe:   cfg.EdgeKeyframe,
		})
	}
	e := &Engine{
		cfg:       cfg,
		strategy:  strategy,
		extractor: feature.NewExtractor(cfg.World, cfg.Camera, feature.DefaultConfig(), cfg.Seed),
		frames:    cfg.World.RenderSequence(cfg.Camera, cfg.Trajectory, cfg.Frames),
		backend:   backend,
	}
	queueDepth := 0
	if qp, ok := strategy.(QueuePreference); ok && qp.PreferredQueueDepth() > 0 {
		queueDepth = qp.PreferredQueueDepth()
	}
	backend.Bind(e.frames, queueDepth)
	return e
}

// Frames exposes the rendered ground-truth sequence.
func (e *Engine) Frames() []*scene.Frame { return e.frames }

// Backend exposes the edge backend serving the run.
func (e *Engine) Backend() EdgeBackend { return e.backend }

// displayedState is the strategy output visible on screen.
type displayedState struct {
	masks    []metrics.PredictedMask
	readyAt  float64
	frameIdx int
}

// QueuePreference lets a strategy choose the edge queue discipline. The
// default depth of 1 is latest-wins: a newer frame replaces an older one
// still waiting, the standard behaviour of real-time-aware offloading
// systems where a stale frame is worthless by the time the server frees
// up. A dumb streaming pipeline (the best-effort baseline) buffers deeply
// instead, serving frames long after they stopped mattering.
type QueuePreference interface {
	PreferredQueueDepth() int
}

// ResultAwaiter lets a strategy signal that it cannot make progress until an
// in-flight edge result lands (the edgeIS VO initialization window). Against
// a live backend the engine then blocks briefly in wall-clock time for the
// result; simulated backends ignore it — their results only move with the
// simulated clock.
type ResultAwaiter interface {
	AwaitingEdgeResult() bool
}

// resultWaitBudget bounds the wall-clock wait for an awaited live result to
// one frame budget, matching the legacy live driver's blocking drain.
const resultWaitBudget = 33 * time.Millisecond

// Run executes the scenario and returns per-frame evaluations plus stats.
//
// The scheduler pops events in simulated-time order. At every frame boundary
// it first advances the backend and delivers results due at or before that
// instant (in delivery order, with the delivery timestamp as the strategy's
// nowMs), then performs the boundary's own work — byte-identical to the
// legacy loop's advance/deliver/act sequence.
func (e *Engine) Run() ([]FrameEval, RunStats) {
	var (
		evals           = make([]FrameEval, 0, len(e.frames))
		stats           RunStats
		mobileBusyUntil float64
		display         displayedState
		displayValid    bool
	)
	stats.Frames = len(e.frames)
	// Results due after the final display deadline are never observed.
	horizon := float64(len(e.frames)-1)*FrameBudgetMs + FrameBudgetMs
	awaiter, hasAwaiter := e.strategy.(ResultAwaiter)

	q := &eventQueue{}
	pend := make([]FrameEval, len(e.frames))
	for i := range e.frames {
		arrival := float64(i) * FrameBudgetMs
		q.push(event{at: arrival, kind: evFrameArrival, frame: i})
		// The deadline event is KEYED at the next frame's arrival instant so
		// the (time, kind) order is exact — float64(i)*B + B can differ from
		// float64(i+1)*B by one ulp, which would invert the tie-break. The
		// handler recomputes the legacy arrival+budget value for semantics.
		q.push(event{at: float64(i+1) * FrameBudgetMs, kind: evDisplayDeadline, frame: i})
		pend[i] = FrameEval{Index: i, LatencyMs: FrameBudgetMs}
	}

	deliver := func(ev event) {
		e.strategy.HandleEdgeResult(ev.res, e.frames[ev.res.FrameIndex], ev.at)
	}
	schedule := func(rs []ScheduledResult) {
		for _, r := range rs {
			q.push(event{at: r.At, kind: evEdgeResult, res: r.Res})
		}
	}
	// drainDue hands over every result due at or before now — results the
	// backend scheduled during the current event must land before the
	// event's action. A due result can sit behind a non-result event on the
	// heap (its delivery time may exceed the next frame's arrival key by one
	// ulp), so the drain pops past such events and restores them, keeping
	// their relative order.
	var stash []event
	drainDue := func(now float64) {
		stash = stash[:0]
		for q.len() > 0 && q.peek().at <= now {
			top := q.pop()
			if top.kind == evEdgeResult {
				deliver(top)
			} else {
				stash = append(stash, top)
			}
		}
		for _, s := range stash {
			q.push(s)
		}
	}

	for q.len() > 0 {
		ev := q.pop()
		switch ev.kind {
		case evEdgeResult:
			if ev.at > horizon {
				continue
			}
			deliver(ev)

		case evFrameArrival:
			schedule(e.backend.Advance(ev.at))
			drainDue(ev.at)
			if hasAwaiter && awaiter.AwaitingEdgeResult() && e.backend.Outstanding() > 0 {
				// A live backend can block for the awaited result; the sim
				// backend declines and the simulated clock stays authoritative.
				if e.backend.Wait(resultWaitBudget) {
					schedule(e.backend.Advance(ev.at))
					drainDue(ev.at)
				}
			}

			arrival := ev.at
			f := e.frames[ev.frame]
			fe := &pend[ev.frame]
			if mobileBusyUntil <= arrival {
				feats := e.extractor.Extract(f, e.cfg.CameraSpeed)
				out := e.strategy.ProcessFrame(f, feats, arrival)
				compute := out.ComputeMs
				for _, off := range out.Offloads {
					compute += off.EncodeMs
				}
				mobileBusyUntil = arrival + compute
				stats.MobileBusyMsSum += compute
				fe.LatencyMs = compute

				if len(out.Masks) > 0 || !displayValid {
					display = displayedState{
						masks:    out.Masks,
						readyAt:  mobileBusyUntil,
						frameIdx: ev.frame,
					}
					displayValid = true
				}

				for _, off := range out.Offloads {
					stats.Offloads++
					fe.Offloaded = true
					schedule(e.backend.Submit(off, mobileBusyUntil))
				}
			} else {
				fe.Dropped = true
				stats.DroppedFrames++
			}

		case evDisplayDeadline:
			// Score what is on screen at the display deadline.
			deadline := float64(ev.frame)*FrameBudgetMs + FrameBudgetMs
			schedule(e.backend.Advance(deadline))
			drainDue(deadline)
			fe := &pend[ev.frame]
			var shown []metrics.PredictedMask
			if displayValid && display.readyAt <= deadline {
				shown = display.masks
				fe.StalenessMs = deadline - float64(display.frameIdx)*FrameBudgetMs
			} else if displayValid {
				// The fresh output missed the deadline; the previous screen
				// content persists. Conservatively charge full staleness.
				fe.StalenessMs = deadline
			}
			fe.IoUs = metrics.MatchFrame(shown, truthsOf(e.frames[ev.frame]))
			evals = append(evals, *fe)
			if e.cfg.OnFrame != nil {
				e.cfg.OnFrame(*fe)
			}
		}
	}

	bs := e.backend.Stats()
	stats.UplinkBytes = bs.UplinkBytes
	stats.DownlinkBytes = bs.DownlinkBytes
	stats.EdgeInferMsSum = bs.InferMsSum
	stats.EdgeResultCount = bs.Results
	stats.DroppedOffloads = bs.DroppedOffloads
	stats.DiscardedResults = bs.DiscardedResults
	stats.MigratedOffloads = bs.MigratedOffloads
	return evals, stats
}

// truthsOf converts a frame's ground truth for scoring.
func truthsOf(f *scene.Frame) []metrics.TruthMask {
	out := make([]metrics.TruthMask, 0, len(f.Objects))
	for _, gt := range f.Objects {
		out = append(out, metrics.TruthMask{
			ObjectID: gt.ObjectID,
			Label:    int(gt.Class),
			Mask:     gt.Visible,
		})
	}
	return out
}

// EvaluateFrom skips the first warmup frames — the VO initialization window
// every system variant shares. The paper's clips run minutes, so their init
// transient is negligible; on short simulated clips it would dominate.
func EvaluateFrom(name string, evals []FrameEval, warmup int) *metrics.Accumulator {
	acc := metrics.NewAccumulator(name)
	for _, ev := range evals {
		if ev.Index < warmup {
			continue
		}
		acc.AddFrame(ev.IoUs, ev.LatencyMs)
	}
	return acc
}
