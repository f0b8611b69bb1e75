// Package feature implements the synthetic ORB-style front-end that feeds
// the visual odometry (Section III). Real ORB detects corner pixels and
// describes them with binary descriptors; here, stable world-anchored
// texture points play the role of corners, so re-detection across frames is
// geometrically exact up to an injected noise model (pixel jitter, blur- and
// speed-dependent dropout, descriptor corruption). The downstream geometry —
// matching, epipolar estimation, triangulation, bundle adjustment — consumes
// the same (pixel, descriptor) interface it would get from real ORB.
package feature

import (
	"math"
	"math/rand"

	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/scene"
)

// Feature is one detected keypoint in a frame.
type Feature struct {
	Pixel      geom.Vec2
	Descriptor uint64
	// Sharpness in [0,1]; low values indicate motion blur. The feature
	// selection of Section III-A filters on it.
	Sharpness float64

	// Ground-truth fields, used only by evaluation and the noise model —
	// never by the estimation pipeline.
	TrueObjectID int     // owning object (0 = background)
	TrueDepth    float64 // camera-frame depth
	PointIndex   int     // index into World.Points
}

// Config tunes the extraction noise model.
type Config struct {
	// PixelSigma is the standard deviation of detection jitter in pixels.
	PixelSigma float64
	// BaseDropout is the probability a visible point goes undetected even
	// when static.
	BaseDropout float64
	// SpeedDropoutScale converts camera speed (m/s) into extra dropout —
	// the motion-blur mechanism behind the Fig. 12 degradation.
	SpeedDropoutScale float64
	// DescriptorNoise is the probability a detection emits a corrupted
	// descriptor (it will not match its true identity).
	DescriptorNoise float64
	// MaxFeatures caps detections per frame (strongest-first), matching
	// the fixed feature budget of real ORB front-ends.
	MaxFeatures int
}

// DefaultConfig mirrors a well-tuned mobile ORB configuration.
func DefaultConfig() Config {
	return Config{
		PixelSigma:        0.4,
		BaseDropout:       0.05,
		SpeedDropoutScale: 0.045,
		DescriptorNoise:   0.01,
		MaxFeatures:       800,
	}
}

// Extractor detects features in rendered frames.
type Extractor struct {
	world  *scene.World
	camera geom.Camera
	cfg    Config
	rng    *rand.Rand
	occl   *mask.Bitmask // per-frame occlusion scratch, reused across Extract calls
}

// NewExtractor builds an extractor over the given world. The seed makes
// extraction deterministic for reproducible experiments.
func NewExtractor(w *scene.World, cam geom.Camera, cfg Config, seed int64) *Extractor {
	if cfg.MaxFeatures == 0 {
		cfg = DefaultConfig()
	}
	return &Extractor{
		world: w, camera: cam, cfg: cfg,
		rng:  rand.New(rand.NewSource(seed)),
		occl: mask.New(cam.Width, cam.Height),
	}
}

// Extract detects features in the frame. camSpeed is the instantaneous
// camera speed (m/s) used by the blur model.
func (e *Extractor) Extract(f *scene.Frame, camSpeed float64) []Feature {
	dropout := e.cfg.BaseDropout + e.cfg.SpeedDropoutScale*camSpeed
	if dropout > 0.95 {
		dropout = 0.95
	}
	camCenter := f.TCW.CameraCenter()

	// Union of visible instance masks, for background occlusion tests.
	// The scratch mask persists across frames so extraction allocates none.
	occluded := e.occl
	occluded.Reset()
	for _, gt := range f.Objects {
		occluded.Union(gt.Visible)
	}

	out := make([]Feature, 0, e.cfg.MaxFeatures)
	for i := range e.world.Points {
		sp := e.world.Points[i]
		pos, normal := e.world.WorldPointAt(i, f.Time)
		pc := f.TCW.Apply(pos)
		if pc.Z <= 0.05 {
			continue
		}
		px, err := e.camera.Project(pc)
		if err != nil || !e.camera.InBounds(px, 1) {
			continue
		}
		xi, yi := int(px.X), int(px.Y)
		if sp.ObjectID == 0 {
			// Background points are hidden behind any instance.
			if occluded.At(xi, yi) {
				continue
			}
		} else {
			// Object points must face the camera and lie on the visible
			// (unoccluded) part of their own instance.
			if normal.Dot(camCenter.Sub(pos)) <= 0 {
				continue
			}
			gt := f.GroundTruthFor(sp.ObjectID)
			if gt == nil {
				continue
			}
			if !nearMask(gt.Visible, xi, yi, 1) {
				continue
			}
		}
		if e.rng.Float64() < dropout {
			continue
		}
		desc := sp.Descriptor
		if e.rng.Float64() < e.cfg.DescriptorNoise {
			desc = e.rng.Uint64() // corrupted: will not match across frames
		}
		sharp := 1 - math.Min(1, camSpeed*0.15) + e.rng.NormFloat64()*0.05
		out = append(out, Feature{
			Pixel: geom.V2(
				px.X+e.rng.NormFloat64()*e.cfg.PixelSigma,
				px.Y+e.rng.NormFloat64()*e.cfg.PixelSigma,
			),
			Descriptor:   desc,
			Sharpness:    clamp01(sharp),
			TrueObjectID: sp.ObjectID,
			TrueDepth:    pc.Z,
			PointIndex:   i,
		})
		if len(out) >= e.cfg.MaxFeatures {
			break
		}
	}
	return out
}

// nearMask reports whether (x,y) or any pixel within radius r is set —
// tolerance for contour points that rasterize just outside the silhouette.
func nearMask(m *mask.Bitmask, x, y, r int) bool {
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if m.At(x+dx, y+dy) {
				return true
			}
		}
	}
	return false
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Match pairs features between two frames by descriptor identity — the
// stand-in for Hamming-distance ORB matching. Corrupted descriptors simply
// fail to pair, modelling dropped matches.
type Match struct {
	A, B int // indices into the two input slices
}

// MatchFeatures returns index pairs of features sharing a descriptor.
// When several A-side features carry the same descriptor (possible when a
// corrupted rng.Uint64 descriptor collides), the first (lowest-index)
// occurrence wins — matching the strongest detection, since extraction
// emits features strongest-first. Last-write-wins here used to silently
// rewire such matches to the weakest duplicate.
func MatchFeatures(a, b []Feature) []Match {
	byDesc := make(map[uint64]int, len(a))
	for i := range a {
		if _, dup := byDesc[a[i].Descriptor]; !dup {
			byDesc[a[i].Descriptor] = i
		}
	}
	out := make([]Match, 0, len(b))
	for j := range b {
		if i, ok := byDesc[b[j].Descriptor]; ok {
			out = append(out, Match{A: i, B: j})
		}
	}
	return out
}
