package transfer

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/scene"
	"edgeis/internal/vo"
)

// harness runs VO over a rendered sequence, feeding edge masks (ground
// truth) at init and every annotateEvery frames, and exercises the
// predictor in between — the full MAMT loop.
type harness struct {
	t      *testing.T
	world  *scene.World
	cam    geom.Camera
	ex     *feature.Extractor
	sys    *vo.System
	pred   *Predictor
	frames []*scene.Frame
}

func newHarness(t *testing.T, w *scene.World, traj scene.Trajectory, n int) *harness {
	t.Helper()
	cam := geom.StandardCamera(320, 240)
	fcfg := feature.DefaultConfig()
	fcfg.DescriptorNoise = 0
	return &harness{
		t:      t,
		world:  w,
		cam:    cam,
		ex:     feature.NewExtractor(w, cam, fcfg, 7),
		sys:    vo.NewSystem(vo.Config{Camera: cam, Seed: 3}),
		pred:   NewPredictor(cam, Config{}),
		frames: w.RenderSequence(cam, traj, n),
	}
}

func toKeypoints(feats []feature.Feature) []vo.Keypoint {
	out := make([]vo.Keypoint, len(feats))
	for i, f := range feats {
		out[i] = vo.Keypoint{Pixel: f.Pixel, Descriptor: f.Descriptor, Sharpness: f.Sharpness}
	}
	return out
}

func gtMasks(f *scene.Frame) []vo.LabeledMask {
	out := make([]vo.LabeledMask, 0, len(f.Objects))
	for _, gt := range f.Objects {
		out = append(out, vo.LabeledMask{Label: int(gt.Class), Mask: gt.Visible})
	}
	return out
}

// seedEdgeMasks stores ground-truth masks for the given frame as edge
// results, mapping scene objects to VO instances by label.
func (h *harness) seedEdgeMasks(frameIdx int) {
	f := h.frames[frameIdx]
	for _, inst := range h.sys.Instances() {
		for _, gt := range f.Objects {
			if int(gt.Class) == inst.Label {
				h.pred.Put(&CachedMask{
					FrameIndex: frameIdx,
					InstanceID: inst.ID,
					Label:      inst.Label,
					Mask:       gt.Visible.Clone(),
					FromEdge:   true,
				})
				break
			}
		}
	}
}

// run processes all frames; returns the frame index at which tracking began.
func (h *harness) run(annotateEvery int) int {
	trackStart := -1
	for _, f := range h.frames {
		st := h.sys.ProcessFrame(f.Index, toKeypoints(h.ex.Extract(f, scene.WalkSpeed)))
		if st == vo.StatusInitPairReady {
			r, c, _ := h.sys.PendingInitPair()
			if err := h.sys.CompleteInitialization(gtMasks(h.frames[r]), gtMasks(h.frames[c])); err == nil {
				h.seedEdgeMasks(r)
				h.seedEdgeMasks(c)
				trackStart = f.Index
			}
			continue
		}
		if st == vo.StatusTracking && annotateEvery > 0 && f.Index%annotateEvery == 0 {
			if err := h.sys.AnnotateFrame(f.Index, gtMasks(f)); err == nil {
				h.seedEdgeMasks(f.Index)
			}
		}
	}
	return trackStart
}

func transferWorld() *scene.World {
	return scene.NewWorld(scene.WorldConfig{Seed: 21}, []*scene.Object{
		{Class: scene.Car, Center: geom.V3(-1, 1, 9), Half: geom.V3(1.6, 1, 1)},
		{Class: scene.Person, Center: geom.V3(2.5, 0.9, 7), Half: geom.V3(0.35, 0.9, 0.35)},
	})
}

func lateralTraj() scene.Trajectory {
	return scene.WaypointPath{
		Waypoints: []geom.Vec3{geom.V3(-2, 1.6, -2), geom.V3(3, 1.6, -1)},
		Target:    geom.V3(0, 1, 9),
		Speed:     scene.WalkSpeed,
	}
}

func TestPredictTransfersMaskAccurately(t *testing.T) {
	h := newHarness(t, transferWorld(), lateralTraj(), 70)
	if h.run(15) < 0 {
		t.Fatal("VO never initialized")
	}
	last := h.frames[len(h.frames)-1]
	if h.sys.FrameRecordAt(last.Index) == nil {
		t.Fatal("last frame not tracked")
	}
	preds := h.pred.PredictAll(h.sys, last.Index)
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	for _, pred := range preds {
		var gt *scene.GroundTruth
		for i := range last.Objects {
			if int(last.Objects[i].Class) == pred.Label {
				gt = &last.Objects[i]
			}
		}
		if gt == nil {
			t.Fatalf("no ground truth for label %d", pred.Label)
		}
		iou := mask.IoU(pred.Mask, gt.Visible)
		if iou < 0.6 {
			t.Errorf("instance %d (label %d): transfer IoU = %.3f, source age %d",
				pred.InstanceID, pred.Label, iou, pred.SourceAge)
		}
	}
}

func TestPredictBeatsStaleCache(t *testing.T) {
	// The whole point of MAMT: a transferred mask must beat just reusing
	// the stale cached mask directly. An approach trajectory changes the
	// objects' image scale, which no amount of mask reuse can follow but
	// depth-aware contour reprojection can.
	approach := scene.WaypointPath{
		Waypoints: []geom.Vec3{geom.V3(-2.5, 1.6, -3), geom.V3(0.5, 1.6, 3.5)},
		Target:    geom.V3(0, 1, 9),
		Speed:     scene.WalkSpeed,
	}
	h := newHarness(t, transferWorld(), approach, 70)
	if h.run(0) < 0 { // annotate only at init; sources grow stale
		t.Fatal("VO never initialized")
	}
	last := h.frames[len(h.frames)-1]
	preds := h.pred.PredictAll(h.sys, last.Index)
	if len(preds) == 0 {
		t.Skip("no predictions with stale-only cache")
	}
	for _, pred := range preds {
		var gt *scene.GroundTruth
		for i := range last.Objects {
			if int(last.Objects[i].Class) == pred.Label {
				gt = &last.Objects[i]
			}
		}
		if gt == nil {
			continue
		}
		src := h.frames[pred.SourceFrame]
		srcGT := src.GroundTruthFor(gt.ObjectID)
		if srcGT == nil {
			continue
		}
		stale := mask.IoU(srcGT.Visible, gt.Visible)
		transferred := mask.IoU(pred.Mask, gt.Visible)
		if transferred < stale {
			t.Errorf("label %d: transfer IoU %.3f worse than stale cache %.3f (age %d)",
				pred.Label, transferred, stale, pred.SourceAge)
		}
	}
}

func TestPredictUnknownInstance(t *testing.T) {
	h := newHarness(t, transferWorld(), lateralTraj(), 40)
	h.run(10)
	if _, err := h.pred.Predict(h.sys, 999, 39); err == nil {
		t.Error("expected error for unknown instance")
	}
}

func TestPredictUntrackedFrame(t *testing.T) {
	h := newHarness(t, transferWorld(), lateralTraj(), 40)
	h.run(10)
	insts := h.sys.Instances()
	if len(insts) == 0 {
		t.Skip("no instances")
	}
	if _, err := h.pred.Predict(h.sys, insts[0].ID, 10_000); err == nil {
		t.Error("expected error for untracked frame")
	}
}

func TestCachePutAndEvict(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{})
	mk := func(frame int, edge bool) *CachedMask {
		m := mask.New(64, 64)
		for y := 10; y < 30; y++ {
			for x := 10; x < 30; x++ {
				m.Set(x, y)
			}
		}
		return &CachedMask{FrameIndex: frame, InstanceID: 1, Label: 2, Mask: m, FromEdge: edge}
	}
	p.Put(mk(1, true))
	p.Put(mk(5, false))
	p.Put(mk(9, false))
	if p.CacheSize() != 3 {
		t.Fatalf("cache size = %d", p.CacheSize())
	}
	// Eviction keeps the newest edge mask even if old.
	removed := p.Evict(8)
	if removed != 1 {
		t.Errorf("removed = %d, want 1 (frame 5)", removed)
	}
	if p.CacheSize() != 2 {
		t.Errorf("cache size after evict = %d", p.CacheSize())
	}
}

func TestCompactParksAndRematerializesExactly(t *testing.T) {
	// Compact must be invisible to everything except the pool: no entry
	// leaves the cache, and a parked entry rematerializes bit-identically.
	h := newHarness(t, transferWorld(), lateralTraj(), 60)
	h.pred.SetPool(mask.NewPool())
	if h.run(20) < 0 {
		t.Fatal("no init")
	}
	last := h.frames[len(h.frames)-1]
	if len(h.pred.PredictAll(h.sys, last.Index)) == 0 {
		t.Skip("no predictions to chain")
	}
	type key struct{ inst, frame int }
	snap := make(map[key]*mask.Bitmask)
	for inst, byFrame := range h.pred.cache {
		for idx, cm := range byFrame {
			snap[key{inst, idx}] = cm.Mask.Clone()
		}
	}
	before := h.pred.CacheSize()
	parked := h.pred.Compact(last.Index + 1)
	if parked == 0 {
		t.Fatal("no pooled entries parked")
	}
	if got := h.pred.CacheSize(); got != before {
		t.Errorf("Compact changed cache size: %d -> %d", before, got)
	}
	rematerialized := 0
	for inst, byFrame := range h.pred.cache {
		for idx, cm := range byFrame {
			if cm.Mask != nil {
				continue // edge entries keep their dense buffers
			}
			h.pred.materialize(cm)
			rematerialized++
			want := snap[key{inst, idx}]
			if cm.Mask.Width != want.Width || cm.Mask.Height != want.Height {
				t.Fatalf("entry %d/%d rematerialized at %dx%d, want %dx%d",
					inst, idx, cm.Mask.Width, cm.Mask.Height, want.Width, want.Height)
			}
			if mask.IoU(cm.Mask, want) != 1 || cm.Mask.Area() != want.Area() {
				t.Errorf("entry %d/%d not bit-identical after round trip", inst, idx)
			}
			if !cm.pooled {
				t.Errorf("entry %d/%d not pooled after rematerialization", inst, idx)
			}
		}
	}
	if rematerialized != parked {
		t.Errorf("rematerialized %d entries, parked %d", rematerialized, parked)
	}
	// Re-parking skips the encode (runs are retained) but must still
	// return every buffer.
	if again := h.pred.Compact(last.Index + 1); again != parked {
		t.Errorf("second Compact parked %d entries, want %d", again, parked)
	}
}

func TestCacheRejectsTiny(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{})
	m := mask.New(64, 64)
	m.Set(1, 1)
	p.Put(&CachedMask{FrameIndex: 1, InstanceID: 1, Mask: m})
	if p.CacheSize() != 0 {
		t.Error("tiny mask should be rejected")
	}
}

func TestCacheEdgePriority(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{})
	big := mask.New(64, 64)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			big.Set(x, y)
		}
	}
	p.Put(&CachedMask{FrameIndex: 3, InstanceID: 1, Mask: big, FromEdge: true})
	// A transferred mask for the same frame must not replace the edge one.
	p.Put(&CachedMask{FrameIndex: 3, InstanceID: 1, Mask: big.Clone(), FromEdge: false})
	byFrame := p.cache[1]
	if !byFrame[3].FromEdge {
		t.Error("edge mask overwritten by transfer")
	}
}

func TestContourDepth(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{K: 2})
	feats := []depthFeat{
		{px: geom.V2(10, 10), depth: 4},
		{px: geom.V2(11, 10), depth: 6},
		{px: geom.V2(50, 50), depth: 100},
	}
	d, ok := p.contourDepth(geom.V2(10, 11), feats)
	if !ok {
		t.Fatal("no depth")
	}
	if d != 5 {
		t.Errorf("depth = %v, want mean(4,6) = 5", d)
	}
	// Fewer features than K still works.
	p2 := NewPredictor(geom.StandardCamera(64, 64), Config{K: 10})
	d2, ok := p2.contourDepth(geom.V2(0, 0), feats[:1])
	if !ok || d2 != 4 {
		t.Errorf("single-feature depth = %v ok=%v", d2, ok)
	}
	if _, ok := p.contourDepth(geom.V2(0, 0), nil); ok {
		t.Error("empty features should fail")
	}
}

func TestEdgeFeaturePreference(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{K: 1})
	feats := []depthFeat{
		{px: geom.V2(12, 10), depth: 4, edge: false},  // dist 2
		{px: geom.V2(12.5, 10), depth: 8, edge: true}, // dist 2.5 * 0.7 = 1.75
	}
	d, _ := p.contourDepth(geom.V2(10, 10), feats)
	if d != 8 {
		t.Errorf("depth = %v, want edge feature preferred (8)", d)
	}
}

func TestPredictionChaining(t *testing.T) {
	// After a successful prediction the result is cached and can serve as
	// the next source.
	h := newHarness(t, transferWorld(), lateralTraj(), 60)
	if h.run(20) < 0 {
		t.Fatal("no init")
	}
	before := h.pred.CacheSize()
	last := h.frames[len(h.frames)-1]
	preds := h.pred.PredictAll(h.sys, last.Index)
	if len(preds) == 0 {
		t.Skip("no predictions")
	}
	if h.pred.CacheSize() <= before {
		t.Error("prediction did not chain into cache")
	}
}

func TestMaxViewAngleRejectsRotatedSources(t *testing.T) {
	// A wide walk turns the camera past maxViewAngle from the init frames,
	// the only cached sources: the predictor must refuse them.
	walk := scene.WaypointPath{
		Waypoints: []geom.Vec3{geom.V3(-5, 1.6, -2), geom.V3(7, 1.6, -1)},
		Target:    geom.V3(0, 1, 9),
		Speed:     scene.WalkSpeed,
	}
	h := newHarness(t, transferWorld(), walk, 240)
	if h.run(0) < 0 {
		t.Fatal("no init")
	}
	last := h.frames[len(h.frames)-1]
	cur := h.sys.FrameRecordAt(last.Index)
	if cur == nil {
		t.Fatal("last frame untracked")
	}
	for _, byFrame := range h.pred.cache {
		for idx := range byFrame {
			src := h.sys.FrameRecordAt(idx)
			if src == nil {
				t.Fatalf("source frame %d evicted", idx)
			}
			if a := cur.TCW.RotationAngle(src.TCW); a <= maxViewAngle {
				t.Fatalf("source frame %d is only %.2f rad from the last frame", idx, a)
			}
		}
	}
	if preds := h.pred.PredictAll(h.sys, last.Index); len(preds) != 0 {
		t.Errorf("%d predictions from out-of-angle sources", len(preds))
	}
}

func TestPredictorConfigDefaults(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{})
	if p.cfg.K != 5 {
		t.Errorf("default K = %d, want the paper's 5", p.cfg.K)
	}
}

// contourDepthOracle is the reference contourDepth: score every feature,
// stable-sort by distance, average the first k depths.
func contourDepthOracle(k int, s geom.Vec2, feats []depthFeat) (float64, bool) {
	if len(feats) == 0 {
		return 0, false
	}
	k = min(k, len(feats))
	type scored struct{ dist, depth float64 }
	ds := make([]scored, 0, len(feats))
	for _, f := range feats {
		d := f.px.DistTo(s)
		if f.edge {
			d *= 0.7
		}
		ds = append(ds, scored{d, f.depth})
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].dist < ds[j].dist })
	sum := 0.0
	for _, d := range ds[:k] {
		sum += d.depth
	}
	return sum / float64(k), true
}

// TestContourDepthMatchesSortOracle checks the selection against the
// stable-sort reference, bit for bit, over random feature sets, every k from
// 1 to len(feats) (past the 16 kept on the stack), edge-weighted features
// and exact-tie distances.
func TestContourDepthMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		feats := make([]depthFeat, n)
		for i := range feats {
			feats[i] = depthFeat{
				px:    geom.V2(rng.Float64()*64, rng.Float64()*64),
				depth: 1 + rng.Float64()*20,
				edge:  rng.Intn(3) == 0,
			}
			if trial%2 == 1 {
				// Integer pixels on a small grid: many exact ties.
				feats[i].px = geom.V2(float64(rng.Intn(5)), float64(rng.Intn(5)))
			}
		}
		s := geom.V2(float64(rng.Intn(5)), float64(rng.Intn(5)))
		for k := 1; k <= n; k++ {
			p := NewPredictor(geom.StandardCamera(64, 64), Config{K: k})
			got, ok := p.contourDepth(s, feats)
			want, _ := contourDepthOracle(k, s, feats)
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, n=%d, k=%d: depth %v, oracle %v", trial, n, k, got, want)
			}
		}
	}
}

// TestContourDepthTieKeepsEarlierFeature pins the tie rule: of two features
// at the same distance, the earlier one is among the k nearest.
func TestContourDepthTieKeepsEarlierFeature(t *testing.T) {
	p := NewPredictor(geom.StandardCamera(64, 64), Config{K: 1})
	s := geom.V2(10, 10)
	tied := []depthFeat{
		{px: geom.V2(13, 10), depth: 7},
		{px: geom.V2(10, 7), depth: 9},  // same distance, later
		{px: geom.V2(7, 10), depth: 11}, // same distance, later still
	}
	if d, _ := p.contourDepth(s, tied); d != 7 {
		t.Errorf("k=1 over three tied features: depth %v, want the first one's 7", d)
	}
	p2 := NewPredictor(geom.StandardCamera(64, 64), Config{K: 2})
	if d, _ := p2.contourDepth(s, tied); d != 8 {
		t.Errorf("k=2 over three tied features: depth %v, want mean(7, 9) = 8", d)
	}
}

func TestContourDepthDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	feats := make([]depthFeat, 50)
	for i := range feats {
		feats[i] = depthFeat{px: geom.V2(float64(i), float64(i%7)), depth: float64(i + 1)}
	}
	p := NewPredictor(geom.StandardCamera(64, 64), Config{})
	if n := testing.AllocsPerRun(100, func() { p.contourDepth(geom.V2(3, 3), feats) }); n != 0 {
		t.Errorf("contourDepth allocates %v times per call at k=%d, want 0", n, p.cfg.K)
	}
}
