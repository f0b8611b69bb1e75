package feature

import (
	"math"
	"testing"

	"edgeis/internal/geom"
	"edgeis/internal/scene"
)

func testSetup(t *testing.T) (*scene.World, geom.Camera, *scene.Frame) {
	t.Helper()
	w := scene.NewWorld(scene.WorldConfig{Seed: 1}, []*scene.Object{
		{Class: scene.Car, Center: geom.V3(0, 1, 8), Half: geom.V3(1.5, 1, 1)},
	})
	cam := geom.StandardCamera(320, 240)
	tcw := scene.LookAtPose(geom.V3(0, 1.6, 0), geom.V3(0, 1, 8))
	return w, cam, w.Render(cam, tcw, 0, 0)
}

func TestExtractBasic(t *testing.T) {
	w, cam, f := testSetup(t)
	ex := NewExtractor(w, cam, DefaultConfig(), 1)
	feats := ex.Extract(f, 0)
	if len(feats) < 50 {
		t.Fatalf("extracted %d features, want >= 50", len(feats))
	}
	var bg, obj int
	for _, ft := range feats {
		if !cam.InBounds(ft.Pixel, -2) {
			t.Fatalf("feature out of bounds: %+v", ft.Pixel)
		}
		if ft.TrueObjectID == 0 {
			bg++
		} else {
			obj++
			if ft.TrueDepth <= 0 {
				t.Fatal("non-positive depth")
			}
		}
	}
	if bg == 0 || obj == 0 {
		t.Errorf("bg=%d obj=%d, want both > 0", bg, obj)
	}
}

func TestExtractObjectPointsLieOnMask(t *testing.T) {
	w, cam, f := testSetup(t)
	cfg := DefaultConfig()
	cfg.PixelSigma = 0 // disable jitter for exact containment check
	ex := NewExtractor(w, cam, cfg, 2)
	feats := ex.Extract(f, 0)
	gt := f.Objects[0]
	for _, ft := range feats {
		if ft.TrueObjectID != gt.ObjectID {
			continue
		}
		x, y := int(ft.Pixel.X), int(ft.Pixel.Y)
		if !nearMask(gt.Visible, x, y, 2) {
			t.Fatalf("object feature at (%d,%d) not on mask", x, y)
		}
	}
}

func TestExtractSpeedIncreasesDropout(t *testing.T) {
	w, cam, f := testSetup(t)
	slow := NewExtractor(w, cam, DefaultConfig(), 3).Extract(f, 0)
	fast := NewExtractor(w, cam, DefaultConfig(), 3).Extract(f, scene.JogSpeed*3)
	if len(fast) >= len(slow) {
		t.Errorf("fast motion should drop features: slow=%d fast=%d", len(slow), len(fast))
	}
}

func TestExtractSharpnessDropsWithSpeed(t *testing.T) {
	w, cam, f := testSetup(t)
	meanSharp := func(speed float64) float64 {
		feats := NewExtractor(w, cam, DefaultConfig(), 4).Extract(f, speed)
		if len(feats) == 0 {
			return 0
		}
		s := 0.0
		for _, ft := range feats {
			s += ft.Sharpness
		}
		return s / float64(len(feats))
	}
	if meanSharp(scene.JogSpeed) >= meanSharp(0) {
		t.Error("sharpness should drop with speed")
	}
}

func TestExtractOcclusionHidesBackground(t *testing.T) {
	w, cam, f := testSetup(t)
	cfg := DefaultConfig()
	cfg.PixelSigma = 0
	cfg.BaseDropout = 0
	ex := NewExtractor(w, cam, cfg, 5)
	feats := ex.Extract(f, 0)
	gt := f.Objects[0]
	for _, ft := range feats {
		if ft.TrueObjectID != 0 {
			continue
		}
		if gt.Visible.At(int(ft.Pixel.X), int(ft.Pixel.Y)) {
			t.Fatalf("background feature inside object mask at %+v", ft.Pixel)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	w, cam, f := testSetup(t)
	a := NewExtractor(w, cam, DefaultConfig(), 7).Extract(f, 1)
	b := NewExtractor(w, cam, DefaultConfig(), 7).Extract(f, 1)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic feature")
		}
	}
}

func TestMatchFeaturesAcrossFrames(t *testing.T) {
	w, cam, _ := testSetup(t)
	t0 := scene.LookAtPose(geom.V3(0, 1.6, 0), geom.V3(0, 1, 8))
	t1 := scene.LookAtPose(geom.V3(0.4, 1.6, 0.3), geom.V3(0, 1, 8))
	f0 := w.Render(cam, t0, 0, 0)
	f1 := w.Render(cam, t1, 1.0/30, 1)
	ex := NewExtractor(w, cam, DefaultConfig(), 8)
	a := ex.Extract(f0, 1)
	b := ex.Extract(f1, 1)
	matches := MatchFeatures(a, b)
	if len(matches) < 30 {
		t.Fatalf("only %d matches", len(matches))
	}
	correct := 0
	for _, m := range matches {
		if a[m.A].PointIndex == b[m.B].PointIndex {
			correct++
		}
	}
	// Descriptor identity matching should be nearly perfect (corruption
	// only removes matches).
	if float64(correct)/float64(len(matches)) < 0.99 {
		t.Errorf("correct ratio = %d/%d", correct, len(matches))
	}
}

func TestDescriptorNoiseReducesMatches(t *testing.T) {
	w, cam, f := testSetup(t)
	cfg := DefaultConfig()
	cfg.DescriptorNoise = 0
	cleanA := NewExtractor(w, cam, cfg, 10).Extract(f, 0)
	cleanB := NewExtractor(w, cam, cfg, 11).Extract(f, 0)
	cfg.DescriptorNoise = 0.4
	noisyA := NewExtractor(w, cam, cfg, 10).Extract(f, 0)
	noisyB := NewExtractor(w, cam, cfg, 11).Extract(f, 0)
	if len(MatchFeatures(noisyA, noisyB)) >= len(MatchFeatures(cleanA, cleanB)) {
		t.Error("descriptor noise should reduce matches")
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	w, cam, f := testSetup(t)
	cfg := DefaultConfig()
	cfg.MaxFeatures = 20
	feats := NewExtractor(w, cam, cfg, 12).Extract(f, 0)
	if len(feats) > 20 {
		t.Errorf("cap violated: %d", len(feats))
	}
}

func TestPixelNoiseMagnitude(t *testing.T) {
	w, cam, f := testSetup(t)
	cfg := DefaultConfig()
	cfg.PixelSigma = 2.0
	noisy := NewExtractor(w, cam, cfg, 13).Extract(f, 0)
	cfg.PixelSigma = 0
	clean := NewExtractor(w, cam, cfg, 13).Extract(f, 0)
	// Same seed, same visibility decisions; compare pixel deviation by
	// matching on PointIndex.
	byIdx := make(map[int]geom.Vec2, len(clean))
	for _, ft := range clean {
		byIdx[ft.PointIndex] = ft.Pixel
	}
	var sum float64
	var n int
	for _, ft := range noisy {
		if p, ok := byIdx[ft.PointIndex]; ok {
			sum += ft.Pixel.DistTo(p)
			n++
		}
	}
	if n == 0 {
		t.Skip("no common features between runs")
	}
	mean := sum / float64(n)
	if mean < 0.5 || mean > 6 {
		t.Errorf("mean deviation = %v px under sigma 2", mean)
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-0.5) != 0 || clamp01(1.5) != 1 || clamp01(0.3) != 0.3 {
		t.Error("clamp01 broken")
	}
	if math.IsNaN(clamp01(0.5)) {
		t.Error("NaN")
	}
}
