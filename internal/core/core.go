// Package core assembles the complete edgeIS system — the paper's primary
// contribution. It wires the three components around the "transfer+infer"
// paradigm (Fig. 4):
//
//   - Motion Aware Mobile Mask Transfer (packages vo + transfer): the VO
//     tracks the device and each object; cached masks are transferred to
//     every frame by contour reprojection.
//   - Contour Instructed edge Inference Acceleration (package accel): the
//     transferred masks instruct the edge model's anchor placement and RoI
//     pruning.
//   - Content-based Fine-grained RoI Selection (packages roisel + codec):
//     offload triggers and tile-level encoding.
//
// System implements pipeline.Strategy, so it can run head-to-head against
// the baselines on identical scenarios. The ablation switches correspond to
// the module study of Fig. 16.
package core

import (
	"edgeis/internal/accel"
	"edgeis/internal/baseline"
	"edgeis/internal/codec"
	"edgeis/internal/device"
	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/metrics"
	"edgeis/internal/pipeline"
	"edgeis/internal/roisel"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
	"edgeis/internal/transfer"
	"edgeis/internal/vo"
)

// Config assembles an edgeIS mobile system.
type Config struct {
	Camera geom.Camera
	Device device.Profile
	Seed   int64

	Transfer transfer.Config
	Selector roisel.Config

	// DisableGuidance turns CIIA off (edge runs the vanilla model) — the
	// "w/o CIIA" ablation.
	DisableGuidance bool
	// DisableCFRS turns content-based selection off: keyframes ship every
	// fixedKeyframeInterval frames at uniform high quality — the "w/o CFRS"
	// ablation.
	DisableCFRS bool
}

// fixedKeyframeInterval is the offload cadence in frames when CFRS is
// disabled.
const fixedKeyframeInterval = 10

// SessionStats counts session-level events for observability.
type SessionStats struct {
	InitAttempts int // staged initialization pairs
	InitFailures int // CompleteInitialization errors (degenerate geometry)
	LostEvents   int // tracking losses requiring re-initialization
	EdgeResults  int // edge inference results consumed
	StaleResults int // results too old to apply (frame record evicted)
	InitResults  int // results received for initialization frames
	InitEmpty    int // initialization results with no usable masks
}

// cacheHorizon is how many frames transfer-cache entries stay usable as
// transfer sources before eviction reclaims them (and their pooled
// storage); see transfer.Predictor.Evict.
const cacheHorizon = 90

// compactAge is how many frames behind the present the transfer cache parks
// chained entries in run-length form (transfer.Predictor.Compact), returning
// their dense buffers to the mask pool. Must stay above 1: the engine reads
// the last frame's prediction masks (Guidance/CIIA) until the next frame
// replaces them, so the freshest chained entries must keep their buffers.
const compactAge = 3

// displayRingDepth is how many display mask sets stay live before their
// storage is recycled. The pipeline engine retains the latest non-empty
// output as display state until the next non-empty output replaces it, and
// per-frame evaluation reads the current output; three sets comfortably
// outlive both.
const displayRingDepth = 3

// System is the edgeIS mobile runtime. It implements pipeline.Strategy.
type System struct {
	cfg  Config
	vo   *vo.System
	pred *transfer.Predictor
	sel  *roisel.Selector
	grid codec.Grid

	// pool recycles per-frame mask scratch (z-clip chain, display clones,
	// fallback tracker updates, transfer rasterization) so steady-state
	// tracking frames allocate no masks.
	pool *mask.Pool
	// displayRing holds the last displayRingDepth non-empty output mask
	// sets; pushing a new set recycles the oldest (see retireDisplay).
	displayRing [displayRingDepth][]*mask.Bitmask

	// fallback is a motion-vector tracker that keeps masks on screen while
	// the VO (re-)initializes — without it the screen would be empty for
	// the whole init window, which no deployed system would accept.
	fallback *baseline.Tracker

	// pendingInit holds edge results awaited for the initialization pair.
	initRef, initCur     int
	awaitingInit         bool
	awaitingSince        int
	initResults          map[int][]vo.LabeledMask
	stats                SessionStats
	lastPredictions      []transfer.Prediction
	lastUnlabeledPix     []struct{ X, Y float64 }
	framesSinceKeyframe  int
	cpu                  device.CPUModel
	mem                  *device.MemoryModel
	lastMemSampleFrame   int
	offloadedThisSession int
	stageObs             StageObserver
}

var _ pipeline.Strategy = (*System)(nil)

// NewSystem builds the edgeIS runtime.
func NewSystem(cfg Config) *System {
	if cfg.Device.Name == "" {
		cfg.Device = device.IPhone11
	}
	pool := mask.NewPool()
	s := &System{
		cfg:         cfg,
		vo:          vo.NewSystem(vo.Config{Camera: cfg.Camera, Seed: cfg.Seed}),
		pred:        transfer.NewPredictor(cfg.Camera, cfg.Transfer),
		sel:         roisel.NewSelector(cfg.Selector),
		grid:        codec.NewGrid(cfg.Camera.Width, cfg.Camera.Height),
		pool:        pool,
		fallback:    baseline.NewTrackerPooled(baseline.TrackMotionVector, pool),
		initResults: make(map[int][]vo.LabeledMask),
		mem:         device.NewMemoryModel(cfg.Device),
	}
	s.pred.SetPool(pool)
	return s
}

// Name implements pipeline.Strategy.
func (s *System) Name() string {
	switch {
	case s.cfg.DisableGuidance && s.cfg.DisableCFRS:
		return "edgeIS (MAMT only)"
	case s.cfg.DisableGuidance:
		return "edgeIS (w/o CIIA)"
	case s.cfg.DisableCFRS:
		return "edgeIS (w/o CFRS)"
	default:
		return "edgeIS"
	}
}

// VO exposes the odometry (read-only use in tests/metrics).
func (s *System) VO() *vo.System { return s.vo }

// AwaitingEdgeResult implements pipeline.ResultAwaiter: until the VO reaches
// tracking, the system is blocked on edge masks (the initialization window),
// so a live engine may block briefly for the in-flight result.
func (s *System) AwaitingEdgeResult() bool { return s.vo.State() != vo.StatusTracking }

// Selector exposes the CFRS selector for reason accounting.
func (s *System) Selector() *roisel.Selector { return s.sel }

// Stats returns session-level event counters.
func (s *System) Stats() SessionStats { return s.stats }

// CPU returns the CPU utilization model.
func (s *System) CPU() *device.CPUModel { return &s.cpu }

// Memory returns the memory model.
func (s *System) Memory() *device.MemoryModel { return s.mem }

// toKeypoints converts extractor output for the VO.
func toKeypoints(feats []feature.Feature) []vo.Keypoint {
	out := make([]vo.Keypoint, len(feats))
	for i, f := range feats {
		out[i] = vo.Keypoint{Pixel: f.Pixel, Descriptor: f.Descriptor, Sharpness: f.Sharpness}
	}
	return out
}

// ProcessFrame implements pipeline.Strategy: one camera frame through the
// full mobile pipeline.
func (s *System) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	st := s.vo.ProcessFrame(f.Index, toKeypoints(feats))
	s.fallback.Step(feats)

	out := pipeline.FrameOutput{}
	switch st {
	case vo.StatusInitPairReady:
		// Request masks for the staged pair; if a previous request lost
		// one of its results (edge queue replacement under load), the
		// timeout retransmits both frames. The timeout must exceed the
		// worst case of two sequential unguided inferences plus transfers
		// (~1 s), or the retry itself evicts the second request forever.
		const initRetryFrames = 40
		if !s.awaitingInit || f.Index-s.awaitingSince > initRetryFrames {
			out = s.handleInitPair(f)
		}
		out.Masks = s.fallbackMasks()
	case vo.StatusTracking:
		out = s.handleTracking(f)
	case vo.StatusLost:
		s.stats.LostEvents++
		s.vo.Reset()
		// The old predictor's pooled cache masks are abandoned to the GC;
		// the pool itself carries over to the replacement.
		s.pred = transfer.NewPredictor(s.cfg.Camera, s.cfg.Transfer)
		s.pred.SetPool(s.pool)
		out.Masks = s.fallbackMasks()
	default: // collecting
		out.Masks = s.fallbackMasks()
	}

	out.ComputeMs += s.cfg.Device.MobileFrameMs(len(s.vo.Instances()))
	s.cpu.Add(out.ComputeMs, pipeline.FrameBudgetMs)
	if f.Index-s.lastMemSampleFrame >= 15 {
		s.mem.Sample(s.vo.Map().Len(), f.Index-s.lastMemSampleFrame, s.pred.CacheSize())
		s.lastMemSampleFrame = f.Index
	}
	s.framesSinceKeyframe++
	return out
}

// fallbackMasks converts the MV tracker state for display. The masks are
// pool-cloned and pushed through the display ring so the engine never
// aliases tracker-owned storage, which the tracker recycles on its own
// schedule.
func (s *System) fallbackMasks() []metrics.PredictedMask {
	tms := s.fallback.Masks()
	if len(tms) == 0 {
		return nil
	}
	out := make([]metrics.PredictedMask, 0, len(tms))
	set := make([]*mask.Bitmask, 0, len(tms))
	for _, tm := range tms {
		c := s.pool.Get(tm.Mask.Width, tm.Mask.Height)
		c.CopyFrom(tm.Mask)
		set = append(set, c)
		out = append(out, metrics.PredictedMask{Label: tm.Label, Mask: c})
	}
	s.retireDisplay(set)
	return out
}

// retireDisplay records a non-empty mask set that is about to become the
// engine's display state and recycles the set pushed displayRingDepth
// non-empty outputs ago. By then the engine has replaced it as display at
// least twice over, so no reference can remain. Empty outputs never reach
// the ring — the engine keeps the previous display on those frames.
func (s *System) retireDisplay(set []*mask.Bitmask) {
	if len(set) == 0 {
		return
	}
	last := displayRingDepth - 1
	s.pool.Put(s.displayRing[last]...)
	copy(s.displayRing[1:], s.displayRing[:last])
	s.displayRing[0] = set
}

// handleInitPair ships both staged initialization frames at full quality.
func (s *System) handleInitPair(f *scene.Frame) pipeline.FrameOutput {
	ref, cur, ok := s.vo.PendingInitPair()
	if !ok {
		return pipeline.FrameOutput{}
	}
	if ref != s.initRef || cur != s.initCur {
		// A new pair invalidates results gathered for the previous one;
		// a retransmit of the same pair keeps any partial result.
		s.initResults = make(map[int][]vo.LabeledMask)
	}
	s.initRef, s.initCur = ref, cur
	s.stats.InitAttempts++
	s.awaitingInit = true
	s.awaitingSince = f.Index

	var offs []*pipeline.OffloadRequest
	for _, idx := range []int{ref, cur} {
		ef := codec.EncodeUniform(s.grid, codec.QualityHigh, nil)
		offs = append(offs, &pipeline.OffloadRequest{
			FrameIndex:   idx,
			PayloadBytes: ef.Bytes,
			EncodeMs:     ef.EncodeMs * s.cfg.Device.EncodeMul,
			Quality:      ef.QualityAt,
		})
	}
	_ = f
	return pipeline.FrameOutput{Offloads: offs}
}

// handleTracking drives the tracking path as a sequence of named stages —
// MAMT's transfer and z-clipped display, CFRS's content analysis, offload
// decision and encode, and CIIA's plan build — each reported through the
// StageObserver hook when one is installed.
func (s *System) handleTracking(f *scene.Frame) pipeline.FrameOutput {
	ts := &trackingState{}

	done := s.stageStart(f.Index, StageMAMTPredict)
	s.stagePredict(f, ts)
	done()

	done = s.stageStart(f.Index, StageMAMTZClip)
	s.stageZClip(f, ts)
	done()

	done = s.stageStart(f.Index, StageCFRSNewAreas)
	s.stageNewAreas(f, ts)
	done()

	out := pipeline.FrameOutput{Masks: ts.masks}

	done = s.stageStart(f.Index, StageCFRSDecide)
	offload := s.stageDecide(ts)
	done()
	if !offload {
		return out
	}
	s.framesSinceKeyframe = 0
	s.offloadedThisSession++

	done = s.stageStart(f.Index, StageCFRSEncode)
	ef := s.stageEncode(ts)
	done()
	if ef == nil {
		return out // cannot happen: levels sized from grid
	}
	req := &pipeline.OffloadRequest{
		FrameIndex:   f.Index,
		PayloadBytes: ef.Bytes,
		EncodeMs:     ef.EncodeMs * s.cfg.Device.EncodeMul,
		Quality:      ef.QualityAt,
	}
	if !s.cfg.DisableGuidance {
		done = s.stageStart(f.Index, StageCIIAPlan)
		req.Guidance = s.stagePlan(ts)
		done()
	}
	out.Offloads = []*pipeline.OffloadRequest{req}
	return out
}

// HandleEdgeResult implements pipeline.Strategy: edge masks flow back into
// the VO map (mask-assisted mapping) and the transfer cache.
func (s *System) HandleEdgeResult(res pipeline.EdgeResult, f *scene.Frame, nowMs float64) {
	labeled := make([]vo.LabeledMask, 0, len(res.Detections))
	for _, d := range res.Detections {
		if d.Mask == nil {
			continue
		}
		labeled = append(labeled, vo.LabeledMask{Label: d.Label, Mask: d.Mask})
	}

	if s.awaitingInit {
		if res.FrameIndex == s.initRef || res.FrameIndex == s.initCur {
			s.stats.InitResults++
			if len(labeled) == 0 {
				s.stats.InitEmpty++
			}
			s.initResults[res.FrameIndex] = labeled
		}
		if len(labeled) > 0 {
			s.primeFallback(labeled, res.FrameIndex)
		}
		if len(s.initResults) == 2 {
			err := s.vo.CompleteInitialization(
				s.initResults[s.initRef], s.initResults[s.initCur])
			s.awaitingInit = false
			if err != nil {
				s.stats.InitFailures++
			}
			if err == nil {
				s.seedCache(s.initRef, s.initResults[s.initRef])
				s.seedCache(s.initCur, s.initResults[s.initCur])
				s.sel.NoteEdgeResult(s.initCur)
			}
			s.initResults = make(map[int][]vo.LabeledMask)
		}
		return
	}

	s.stats.EdgeResults++
	if s.vo.State() != vo.StatusTracking && len(labeled) > 0 {
		// While the VO is down, fresh edge masks still refresh the
		// fallback tracker.
		s.primeFallback(labeled, res.FrameIndex)
	}
	if err := s.vo.AnnotateFrame(res.FrameIndex, labeled); err != nil {
		s.stats.StaleResults++
		return // frame record already evicted; result too stale to use
	}
	s.seedCache(res.FrameIndex, labeled)
	s.sel.NoteEdgeResult(res.FrameIndex)
	s.pred.Evict(res.FrameIndex - cacheHorizon)
}

// primeFallback feeds edge masks into the MV fallback tracker.
func (s *System) primeFallback(labeled []vo.LabeledMask, frameIdx int) {
	tms := make([]baseline.TrackedMask, 0, len(labeled))
	for _, lm := range labeled {
		c := s.pool.Get(lm.Mask.Width, lm.Mask.Height)
		c.CopyFrom(lm.Mask)
		tms = append(tms, baseline.TrackedMask{
			Label: lm.Label, Mask: c, SourceFrame: frameIdx,
		})
	}
	s.fallback.SetMasks(tms)
}

// seedCache maps edge masks to VO instances and stores them as transfer
// sources. A mask belongs to the instance whose points (observed in that
// frame) it covers the most.
func (s *System) seedCache(frameIdx int, labeled []vo.LabeledMask) {
	rec := s.vo.FrameRecordAt(frameIdx)
	if rec == nil {
		return
	}
	for _, lm := range labeled {
		bestInst, bestCount := 0, 0
		counts := make(map[int]int)
		for i, pid := range rec.PointIDs {
			if pid == 0 {
				continue
			}
			mp := s.vo.Map().ByID(pid)
			if mp == nil || mp.InstanceID == 0 {
				continue
			}
			px := rec.Keypoints[i].Pixel
			if lm.Mask.At(int(px.X), int(px.Y)) {
				counts[mp.InstanceID]++
				if counts[mp.InstanceID] > bestCount {
					bestInst, bestCount = mp.InstanceID, counts[mp.InstanceID]
				}
			}
		}
		if bestInst == 0 || bestCount < 3 {
			continue
		}
		inst := s.vo.Instance(bestInst)
		if inst == nil || inst.Label != lm.Label {
			continue
		}
		s.pred.Put(&transfer.CachedMask{
			FrameIndex: frameIdx,
			InstanceID: bestInst,
			Label:      lm.Label,
			Mask:       lm.Mask,
			FromEdge:   true,
		})
	}
}

// Guidance builds the current CIIA plan (exposed for the acceleration
// benchmarks, which drive the edge model directly).
func (s *System) Guidance(width, height int) segmodel.Guidance {
	if s.cfg.DisableGuidance {
		return nil
	}
	priors := make([]accel.ObjectPrior, 0, len(s.lastPredictions))
	for _, p := range s.lastPredictions {
		priors = append(priors, accel.ObjectPrior{Box: p.Mask.BoundingBox(), Label: p.Label})
	}
	newAreas := expandAreas(roisel.NewAreasFromUnlabeled(s.grid, s.lastUnlabeledPix, 2),
		codec.TileSize, s.cfg.Camera.Width, s.cfg.Camera.Height)
	return accel.BuildPlan(priors, newAreas, width, height, 0)
}

// expandAreas grows new-content boxes by a margin so freshly appearing
// objects whose features straddle tile borders stay covered.
func expandAreas(areas []mask.Box, margin, w, h int) []mask.Box {
	out := make([]mask.Box, 0, len(areas))
	for _, b := range areas {
		out = append(out, b.Expand(margin, w, h))
	}
	return out
}
