package baseline

import (
	"edgeis/internal/codec"
	"edgeis/internal/device"
	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/metrics"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
)

// MobileOnly runs the segmentation model entirely on the device
// (the TensorFlow Lite baseline of Section VI-B). Inference takes several
// camera intervals, so the engine drops frames and the screen content
// grows stale — the mechanism behind its 78.3% false rate in Fig. 9.
type MobileOnly struct {
	Camera geom.Camera
	Device device.Profile
	Model  *segmodel.Model
	Seed   int64
}

var _ pipeline.Strategy = (*MobileOnly)(nil)

// NewMobileOnly builds the pure-mobile baseline.
func NewMobileOnly(cam geom.Camera, dev device.Profile, seed int64) *MobileOnly {
	return &MobileOnly{Camera: cam, Device: dev, Model: segmodel.New(segmodel.MaskRCNN), Seed: seed}
}

// Name implements pipeline.Strategy.
func (m *MobileOnly) Name() string { return "mobile-only" }

// ProcessFrame implements pipeline.Strategy.
func (m *MobileOnly) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	in := inputFromFrame(m.Camera, f, nil, m.Seed)
	res := m.Model.Run(in, nil)
	return pipeline.FrameOutput{
		Masks:     masksFromDetections(res.Detections),
		ComputeMs: res.TotalMs() * m.Device.InferScale,
	}
}

// HandleEdgeResult implements pipeline.Strategy (never called: no offloads).
func (m *MobileOnly) HandleEdgeResult(pipeline.EdgeResult, *scene.Frame, float64) {}

// EdgeStrategy is the shared skeleton of the offloading baselines: a local
// tracker bridges the frames between edge results; a transmission policy
// decides cadence and encoding.
type EdgeStrategy struct {
	name    string
	camera  geom.Camera
	dev     device.Profile
	grid    codec.Grid
	tracker *Tracker

	// KeyframeInterval is the offload cadence in frames; 1 = every frame.
	keyframeInterval int
	// queueDepth is the edge queue this strategy implies (see
	// pipeline.QueuePreference); 0 means the engine default (latest-wins).
	queueDepth int
	// encode produces the per-tile levels for an offloaded frame.
	encode func(s *EdgeStrategy) (*codec.EncodedFrame, error)
	// useGuidance attaches a CIIA plan from tracker state (Fig. 16's
	// "baseline + CIIA" arm).
	useGuidance bool

	sinceKeyframe int
}

var _ pipeline.Strategy = (*EdgeStrategy)(nil)

// NewBestEffort builds the best-effort edge baseline (Section VI-B): every
// frame ships at uniform high quality; a motion-vector scheme tracks masks
// locally while results are in flight.
func NewBestEffort(cam geom.Camera, dev device.Profile) *EdgeStrategy {
	s := &EdgeStrategy{
		name:             "best-effort-edge",
		camera:           cam,
		dev:              dev,
		grid:             codec.NewGrid(cam.Width, cam.Height),
		tracker:          NewTracker(TrackMotionVector),
		keyframeInterval: 1,
		// A plain streaming pipeline buffers frames blindly; the edge
		// serves them long after capture (Section VI-B's "best effort
		// strategy"), which is exactly why it loses.
		queueDepth: 24,
	}
	s.encode = func(s *EdgeStrategy) (*codec.EncodedFrame, error) {
		return codec.EncodeUniform(s.grid, codec.QualityHigh, nil), nil
	}
	return s
}

// PreferredQueueDepth implements pipeline.QueuePreference.
func (s *EdgeStrategy) PreferredQueueDepth() int { return s.queueDepth }

// NewEAAR builds the adapted EAAR baseline: motion-vector local tracking,
// keyframe offloads with RoI-based encoding — object regions (predicted by
// translating cached boxes with the motion vector, "more coarse" per the
// paper) at high quality, the rest at medium.
func NewEAAR(cam geom.Camera, dev device.Profile) *EdgeStrategy {
	s := &EdgeStrategy{
		name:             "EAAR",
		camera:           cam,
		dev:              dev,
		grid:             codec.NewGrid(cam.Width, cam.Height),
		tracker:          NewTracker(TrackMotionVector),
		keyframeInterval: 10,
	}
	s.encode = func(s *EdgeStrategy) (*codec.EncodedFrame, error) {
		levels := make([]codec.QualityLevel, s.grid.Tiles())
		for i := range levels {
			levels[i] = codec.QualityMedium
		}
		for _, tm := range s.tracker.Masks() {
			// Coarse RoI: the whole expanded bounding box at high quality.
			b := tm.Mask.BoundingBox().Expand(24, s.camera.Width, s.camera.Height)
			for _, tl := range s.grid.TilesInBox(b) {
				levels[tl] = codec.QualityHigh
			}
		}
		return codec.Encode(s.grid, levels, nil)
	}
	return s
}

// smallObjectArea is EdgeDuet's small-object pixel threshold.
const smallObjectArea = 4000

// NewEdgeDuet builds the adapted EdgeDuet baseline: KCF-style local
// tracking and tile-level offloading that "only preserves small objects in
// high resolution", charging large objects medium quality.
func NewEdgeDuet(cam geom.Camera, dev device.Profile) *EdgeStrategy {
	s := &EdgeStrategy{
		name:             "EdgeDuet",
		camera:           cam,
		dev:              dev,
		grid:             codec.NewGrid(cam.Width, cam.Height),
		tracker:          NewTracker(TrackKCF),
		keyframeInterval: 10,
	}
	s.encode = func(s *EdgeStrategy) (*codec.EncodedFrame, error) {
		levels := make([]codec.QualityLevel, s.grid.Tiles())
		for i := range levels {
			levels[i] = codec.QualityLow
		}
		for _, tm := range s.tracker.Masks() {
			b := tm.Mask.BoundingBox()
			lvl := codec.QualityMedium
			if b.Area() <= smallObjectArea {
				lvl = codec.QualityHigh // small objects prioritized
			}
			for _, tl := range s.grid.TilesInBox(b.Expand(codec.TileSize, s.camera.Width, s.camera.Height)) {
				if levels[tl] < lvl {
					levels[tl] = lvl
				}
			}
		}
		return codec.Encode(s.grid, levels, nil)
	}
	return s
}

// Name implements pipeline.Strategy.
func (s *EdgeStrategy) Name() string { return s.name }

// Tracker exposes the local tracker (tests).
func (s *EdgeStrategy) Tracker() *Tracker { return s.tracker }

// ProcessFrame implements pipeline.Strategy.
func (s *EdgeStrategy) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	s.tracker.Step(feats)

	masks := make([]metrics.PredictedMask, 0, len(s.tracker.Masks()))
	for _, tm := range s.tracker.Masks() {
		masks = append(masks, metrics.PredictedMask{Label: tm.Label, Mask: tm.Mask})
	}
	// Local tracking cost: feature matching plus a per-mask update.
	compute := s.dev.ExtractMs + 2 + 1.5*float64(len(masks))

	out := pipeline.FrameOutput{Masks: masks, ComputeMs: compute}
	s.sinceKeyframe++
	if s.sinceKeyframe >= s.keyframeInterval {
		s.sinceKeyframe = 0
		ef, err := s.encode(s)
		if err == nil {
			req := &pipeline.OffloadRequest{
				FrameIndex:   f.Index,
				PayloadBytes: ef.Bytes,
				EncodeMs:     ef.EncodeMs * s.dev.EncodeMul,
				Quality:      ef.QualityAt,
			}
			s.attachGuidance(req)
			out.Offloads = []*pipeline.OffloadRequest{req}
		}
	}
	return out
}

// HandleEdgeResult implements pipeline.Strategy: fresh masks replace the
// tracker state (the cached-result update of the track+detect loop).
func (s *EdgeStrategy) HandleEdgeResult(res pipeline.EdgeResult, f *scene.Frame, nowMs float64) {
	tms := make([]TrackedMask, 0, len(res.Detections))
	for _, d := range res.Detections {
		if d.Mask == nil {
			continue
		}
		tms = append(tms, TrackedMask{
			Label:       d.Label,
			Mask:        d.Mask.Clone(),
			SourceFrame: res.FrameIndex,
		})
	}
	if len(tms) > 0 {
		s.tracker.SetMasks(tms)
	}
}

// inputFromFrame converts scene ground truth into a model input (shared by
// the mobile-only baseline, which runs the model locally).
func inputFromFrame(cam geom.Camera, f *scene.Frame, quality func(x, y int) float64, seed int64) segmodel.Input {
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
		Width: cam.Width, Height: cam.Height,
		Objects: objs, Quality: quality,
		Seed: seed*7_919 + int64(f.Index),
	}
}

// masksFromDetections converts model output for display.
func masksFromDetections(dets []segmodel.Detection) []metrics.PredictedMask {
	out := make([]metrics.PredictedMask, 0, len(dets))
	for _, d := range dets {
		if d.Mask == nil {
			continue
		}
		out = append(out, metrics.PredictedMask{Label: d.Label, Mask: d.Mask})
	}
	return out
}
