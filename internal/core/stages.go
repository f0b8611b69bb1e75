package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/baseline"
	"edgeis/internal/codec"
	"edgeis/internal/mask"
	"edgeis/internal/metrics"
	"edgeis/internal/roisel"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
	"edgeis/internal/transfer"
	"edgeis/internal/vo"
)

// Stage names reported through StageObserver, one per step of the tracking
// path: the MAMT transfer stages, the CFRS selection stages, and the CIIA
// plan build.
const (
	StageMAMTPredict  = "mamt.predict"
	StageMAMTZClip    = "mamt.zclip"
	StageCFRSNewAreas = "cfrs.newareas"
	StageCFRSDecide   = "cfrs.decide"
	StageCFRSEncode   = "cfrs.encode"
	StageCIIAPlan     = "ciia.plan"
)

// StageObserver receives wall-clock timings of the mobile pipeline's named
// stages, one call per stage per tracking frame. Observers see real elapsed
// time (the host's, not the simulated device's) — the hook exists for
// profiling where mobile milliseconds are spent, and must not feed back into
// the simulation.
type StageObserver interface {
	ObserveStage(frameIndex int, stage string, elapsed time.Duration)
}

// SetStageObserver installs the per-stage timing hook (nil disables it).
func (s *System) SetStageObserver(o StageObserver) { s.stageObs = o }

// stageStart begins timing a stage; the returned func reports it. With no
// observer installed both halves are no-ops, so the tracking path pays
// nothing for the hook.
func (s *System) stageStart(frameIndex int, stage string) func() {
	if s.stageObs == nil {
		return func() {}
	}
	start := time.Now()
	return func() { s.stageObs.ObserveStage(frameIndex, stage, time.Since(start)) }
}

// StageTimer is a StageObserver that aggregates per-stage call counts and
// total elapsed time.
type StageTimer struct {
	acc map[string]*stageAgg
}

type stageAgg struct {
	Count int
	Total time.Duration
}

// NewStageTimer returns an empty aggregating observer.
func NewStageTimer() *StageTimer {
	return &StageTimer{acc: make(map[string]*stageAgg)}
}

// ObserveStage implements StageObserver.
func (t *StageTimer) ObserveStage(_ int, stage string, elapsed time.Duration) {
	a := t.acc[stage]
	if a == nil {
		a = &stageAgg{}
		t.acc[stage] = a
	}
	a.Count++
	a.Total += elapsed
}

// Count returns how many times a stage was observed.
func (t *StageTimer) Count(stage string) int {
	if a := t.acc[stage]; a != nil {
		return a.Count
	}
	return 0
}

// Total returns the accumulated elapsed time of a stage.
func (t *StageTimer) Total(stage string) time.Duration {
	if a := t.acc[stage]; a != nil {
		return a.Total
	}
	return 0
}

// Summary renders one "stage count total mean" line per observed stage,
// sorted by stage name.
func (t *StageTimer) Summary() string {
	names := make([]string, 0, len(t.acc))
	for name := range t.acc {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		a := t.acc[name]
		mean := time.Duration(0)
		if a.Count > 0 {
			mean = a.Total / time.Duration(a.Count)
		}
		fmt.Fprintf(&b, "%-14s calls=%-5d total=%-12s mean=%s\n", name, a.Count, a.Total, mean)
	}
	return b.String()
}

// trackingState carries intermediate products between the tracking stages of
// one frame.
type trackingState struct {
	preds    []transfer.Prediction
	masks    []metrics.PredictedMask
	boxes    []mask.Box
	priors   []accel.ObjectPrior
	newAreas []mask.Box
	fs       roisel.FrameState
}

// stagePredict is MAMT's transfer step: reproject every cached mask into the
// current frame through the VO poses.
func (s *System) stagePredict(f *scene.Frame, ts *trackingState) {
	// Park aged chained entries in run-length form on the frame clock, not
	// only on edge results: when CFRS decides nothing needs offloading, no
	// results arrive, and without this the chained predictions would bleed
	// the mask pool dry at one set per frame. Compacting (unlike evicting
	// here) leaves every entry selectable, so transfer outputs are
	// byte-identical with or without it.
	s.pred.Compact(f.Index - compactAge)
	ts.preds = s.pred.PredictAll(s.vo, f.Index)
	s.lastPredictions = ts.preds
}

// stageZClip is MAMT's display step. Transferred masks are full silhouettes,
// but what the user sees (and the ground truth annotates) is the visible
// part: the VO knows each instance's camera depth, so nearer masks clip
// farther ones exactly like the renderer's painter pass. The clipped set
// becomes the display output and primes the fallback tracker.
func (s *System) stageZClip(f *scene.Frame, ts *trackingState) {
	preds := ts.preds
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	depth := func(i int) float64 {
		if inst := s.vo.Instance(preds[i].InstanceID); inst != nil {
			return inst.MeanDepth
		}
		return 1e18
	}
	slices.SortFunc(order, func(a, b int) int {
		switch da, db := depth(a), depth(b); {
		case da < db:
			return -1
		case db < da:
			return 1
		}
		return 0
	})
	occluded := s.pool.Get(s.cfg.Camera.Width, s.cfg.Camera.Height)
	clipped := make([]*mask.Bitmask, len(preds))
	for _, i := range order {
		m := s.pool.Get(preds[i].Mask.Width, preds[i].Mask.Height)
		m.CopyFrom(preds[i].Mask)
		m.Subtract(occluded)
		occluded.Union(preds[i].Mask)
		clipped[i] = m
	}
	s.pool.Put(occluded) // never escapes this stage

	ts.masks = make([]metrics.PredictedMask, 0, len(preds))
	ts.boxes = make([]mask.Box, 0, len(preds))
	ts.priors = make([]accel.ObjectPrior, 0, len(preds))
	tms := make([]baseline.TrackedMask, 0, len(preds))
	for i, p := range preds {
		ts.masks = append(ts.masks, metrics.PredictedMask{Label: p.Label, Mask: clipped[i]})
		b := p.Mask.BoundingBox()
		ts.boxes = append(ts.boxes, b)
		ts.priors = append(ts.priors, accel.ObjectPrior{Box: b, Label: p.Label})
		tm := s.pool.Get(clipped[i].Width, clipped[i].Height)
		tm.CopyFrom(clipped[i])
		tms = append(tms, baseline.TrackedMask{Label: p.Label, Mask: tm, SourceFrame: f.Index})
	}
	// The clipped set becomes this frame's display output; route it through
	// the ring so its storage returns to the pool once the engine has moved
	// past it.
	s.retireDisplay(clipped)
	if len(tms) > 0 {
		// Keep the fallback tracker primed with the latest good masks so a
		// later tracking loss degrades to classical MV tracking instead of
		// a blank screen. The tracker takes ownership of the clones.
		s.fallback.SetMasks(tms)
	}
}

// stageNewAreas is CFRS's content analysis: unlabeled feature pixels mark
// screen regions no edge mask has covered yet, grouped into new-content
// boxes, and the frame state for the offload decision is assembled.
func (s *System) stageNewAreas(f *scene.Frame, ts *trackingState) {
	s.lastUnlabeledPix = s.lastUnlabeledPix[:0]
	if rec := s.vo.FrameRecordAt(f.Index); rec != nil {
		for i, pid := range rec.PointIDs {
			unlabeled := pid == 0
			if !unlabeled {
				if mp := s.vo.Map().ByID(pid); mp != nil && mp.Label == vo.LabelUnknown {
					unlabeled = true
				}
			}
			if unlabeled {
				px := rec.Keypoints[i].Pixel
				s.lastUnlabeledPix = append(s.lastUnlabeledPix,
					struct{ X, Y float64 }{px.X, px.Y})
			}
		}
	}
	ts.newAreas = expandAreas(roisel.NewAreasFromUnlabeled(s.grid, s.lastUnlabeledPix, 2),
		codec.TileSize, s.cfg.Camera.Width, s.cfg.Camera.Height)

	moving := 0
	for _, inst := range s.vo.Instances() {
		if inst.Moving {
			moving++
		}
	}
	ts.fs = roisel.FrameState{
		Index:             f.Index,
		UnlabeledFraction: s.vo.UnlabeledFraction(),
		MovingObjects:     moving,
		ObjectBoxes:       ts.boxes,
		NewAreas:          ts.newAreas,
	}
}

// stageDecide is CFRS's offload trigger (or the fixed keyframe cadence when
// CFRS is ablated away).
func (s *System) stageDecide(ts *trackingState) bool {
	if s.cfg.DisableCFRS {
		return s.framesSinceKeyframe >= fixedKeyframeInterval
	}
	offload, _ := s.sel.Decide(ts.fs)
	return offload
}

// stageEncode is CFRS's tile-level encoding: the selector partitions the
// frame into quality levels and the codec prices the result. Returns nil
// only on a partition/grid mismatch, which the selector's sizing rules out.
func (s *System) stageEncode(ts *trackingState) *codec.EncodedFrame {
	if s.cfg.DisableCFRS {
		return codec.EncodeUniform(s.grid, codec.QualityHigh, nil)
	}
	levels, cover := s.sel.Partition(s.grid, ts.fs)
	ef, err := codec.Encode(s.grid, levels, cover)
	if err != nil {
		return nil // cannot happen: levels sized from grid
	}
	return ef
}

// stagePlan is CIIA's guidance build: transferred boxes and new-content
// areas instruct the edge model's anchor placement and RoI pruning.
func (s *System) stagePlan(ts *trackingState) segmodel.Guidance {
	return accel.BuildPlan(ts.priors, ts.newAreas, s.cfg.Camera.Width, s.cfg.Camera.Height, 0)
}
