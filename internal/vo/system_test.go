package vo

import (
	"math"
	"testing"

	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/scene"
)

// voHarness drives a VO system over a rendered sequence, providing ground
// truth masks whenever the system asks (playing the role of the edge).
type voHarness struct {
	t      *testing.T
	world  *scene.World
	cam    geom.Camera
	ex     *feature.Extractor
	sys    *System
	frames []*scene.Frame
	speed  float64
}

func newHarness(t *testing.T, w *scene.World, traj scene.Trajectory, n int, speed float64) *voHarness {
	t.Helper()
	cam := geom.StandardCamera(320, 240)
	cfg := feature.DefaultConfig()
	cfg.DescriptorNoise = 0 // keep integration tests deterministic-ish
	return &voHarness{
		t:      t,
		world:  w,
		cam:    cam,
		ex:     feature.NewExtractor(w, cam, cfg, 99),
		sys:    NewSystem(Config{Camera: cam, Seed: 5}),
		frames: w.RenderSequence(cam, traj, n),
		speed:  speed,
	}
}

func toKeypoints(feats []feature.Feature) []Keypoint {
	out := make([]Keypoint, len(feats))
	for i, f := range feats {
		out[i] = Keypoint{Pixel: f.Pixel, Descriptor: f.Descriptor, Sharpness: f.Sharpness}
	}
	return out
}

func gtMasks(f *scene.Frame) []LabeledMask {
	out := make([]LabeledMask, 0, len(f.Objects))
	for _, gt := range f.Objects {
		out = append(out, LabeledMask{Label: int(gt.Class), Mask: gt.Visible})
	}
	return out
}

// run feeds all frames, answering init requests with ground-truth masks.
// It returns the per-frame statuses.
func (h *voHarness) run() []Status {
	statuses := make([]Status, 0, len(h.frames))
	for _, f := range h.frames {
		st := h.sys.ProcessFrame(f.Index, toKeypoints(h.ex.Extract(f, h.speed)))
		if st == StatusInitPairReady {
			refIdx, curIdx, ok := h.sys.PendingInitPair()
			if !ok {
				h.t.Fatal("init pair not available")
			}
			// A degenerate pair is retried on later frames, matching how
			// the real system keeps trying consecutive frames.
			_ = h.sys.CompleteInitialization(gtMasks(h.frames[refIdx]), gtMasks(h.frames[curIdx]))
			st = h.sys.State()
		}
		statuses = append(statuses, st)
	}
	return statuses
}

func staticWorld() *scene.World {
	return scene.NewWorld(scene.WorldConfig{Seed: 11}, []*scene.Object{
		{Class: scene.Car, Center: geom.V3(-1.5, 1, 9), Half: geom.V3(1.6, 1, 1)},
		{Class: scene.Person, Center: geom.V3(2, 0.9, 7), Half: geom.V3(0.3, 0.9, 0.3)},
	})
}

func sideTraj() scene.Trajectory {
	return scene.WaypointPath{
		Waypoints: []geom.Vec3{geom.V3(-2, 1.6, -2), geom.V3(3, 1.6, -1)},
		Target:    geom.V3(0, 1, 9),
		Speed:     scene.WalkSpeed,
	}
}

func TestSystemInitializesAndTracks(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 60, scene.WalkSpeed)
	statuses := h.run()

	tracking := 0
	for _, st := range statuses {
		if st == StatusTracking {
			tracking++
		}
	}
	if tracking < 40 {
		t.Fatalf("tracked %d/60 frames", tracking)
	}
	if h.sys.State() != StatusTracking {
		t.Fatalf("final state = %v", h.sys.State())
	}
	if h.sys.Map().Len() < 100 {
		t.Errorf("map has %d points", h.sys.Map().Len())
	}
	if !isFinitePose(h.sys.CurrentPose()) {
		t.Error("non-finite pose")
	}
}

func TestSystemCreatesInstances(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 40, scene.WalkSpeed)
	h.run()
	insts := h.sys.Instances()
	if len(insts) < 1 {
		t.Fatalf("no instances created")
	}
	labels := map[int]bool{}
	for _, inst := range insts {
		labels[inst.Label] = true
		if pts := h.sys.Map().AppendInstancePoints(nil, inst.ID); len(pts) < minObservationsForPose {
			t.Errorf("instance %d has %d points", inst.ID, len(pts))
		}
	}
	if !labels[int(scene.Car)] {
		t.Error("car instance missing")
	}
}

func TestSystemStaticObjectsNotMoving(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 50, scene.WalkSpeed)
	h.run()
	for _, inst := range h.sys.Instances() {
		if inst.LastPoseValid && inst.Moving {
			t.Errorf("static instance %d flagged as moving (TWO trans=%v)",
				inst.ID, inst.TWO.T.Norm())
		}
	}
}

func TestSystemDetectsMovingObject(t *testing.T) {
	w := scene.NewWorld(scene.WorldConfig{Seed: 12}, []*scene.Object{
		{Class: scene.Car, Center: geom.V3(-1.5, 1, 9), Half: geom.V3(1.6, 1, 1),
			Motion: scene.Motion{Velocity: geom.V3(0.9, 0, 0), StartAt: 1.0}},
		{Class: scene.Person, Center: geom.V3(3, 0.9, 7), Half: geom.V3(0.3, 0.9, 0.3)},
	})
	h := newHarness(t, w, sideTraj(), 90, scene.WalkSpeed)
	h.run()
	var carInst *InstanceTrack
	for _, inst := range h.sys.Instances() {
		if inst.Label == int(scene.Car) {
			carInst = inst
		}
	}
	if carInst == nil {
		t.Fatal("car instance missing")
	}
	if !carInst.Moving {
		t.Errorf("moving car not detected (TWO trans=%v rot=%v)",
			carInst.TWO.T.Norm(), geom.LogRotation(carInst.TWO.R).Norm())
	}
}

func TestSystemTrajectoryShape(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 60, scene.WalkSpeed)
	h.run()

	// Compare estimated relative motion (VO frame) against ground truth up
	// to the monocular scale.
	var est, gt []geom.Pose
	for _, f := range h.frames {
		rec := h.sys.FrameRecordAt(f.Index)
		if rec == nil {
			continue
		}
		est = append(est, rec.TCW)
		gt = append(gt, f.TCW)
	}
	if len(est) < 30 {
		t.Fatalf("only %d tracked frames retained", len(est))
	}
	// Rotation between first and last should agree (rotation has no scale
	// ambiguity, but the VO world frame differs from the scene world frame
	// by a fixed similarity; relative rotations cancel it).
	relEst := est[len(est)-1].Compose(est[0].Inverse())
	relGT := gt[len(gt)-1].Compose(gt[0].Inverse())
	if ang := math.Abs(geom.LogRotation(relEst.R).Norm() - geom.LogRotation(relGT.R).Norm()); ang > 0.08 {
		t.Errorf("relative rotation magnitude error = %v rad", ang)
	}
	// Translation distances should correlate after scale alignment.
	s := AlignScale(est, gt)
	if s <= 0 {
		t.Fatalf("scale = %v", s)
	}
	dEst := est[0].TranslationDistance(est[len(est)-1]) * s
	dGT := gt[0].TranslationDistance(gt[len(gt)-1])
	if dGT > 0.5 && math.Abs(dEst-dGT)/dGT > 0.25 {
		t.Errorf("scaled displacement %v vs ground truth %v", dEst, dGT)
	}
}

func TestSystemUnlabeledFractionDropsAfterAnnotation(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 30, scene.WalkSpeed)
	h.run()
	before := h.sys.UnlabeledFraction()

	// Annotate the latest frame with ground truth and process one more.
	last := h.frames[len(h.frames)-1]
	if err := h.sys.AnnotateFrame(last.Index, gtMasks(last)); err != nil {
		t.Fatal(err)
	}
	extra := h.world.Render(h.cam, sideTraj().PoseAt(float64(30)/scene.FrameRate), 1.0, 30)
	h.sys.ProcessFrame(30, toKeypoints(h.ex.Extract(extra, h.speed)))
	after := h.sys.UnlabeledFraction()
	if after > before+0.01 {
		t.Errorf("unlabeled fraction rose after annotation: %v -> %v", before, after)
	}
	if h.sys.Map().UnknownCount() < 0 {
		t.Error("impossible")
	}
}

func TestSystemAnnotateUnknownFrame(t *testing.T) {
	sys := NewSystem(Config{Camera: geom.StandardCamera(320, 240)})
	if err := sys.AnnotateFrame(42, nil); err == nil {
		t.Error("expected error annotating unknown frame")
	}
}

func TestSystemReset(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 30, scene.WalkSpeed)
	h.run()
	if h.sys.Map().Len() == 0 {
		t.Fatal("expected populated map")
	}
	h.sys.Reset()
	if h.sys.State() != StatusCollecting {
		t.Error("state after reset")
	}
	if h.sys.Map().Len() != 0 {
		t.Error("map not cleared")
	}
	if len(h.sys.Instances()) != 0 {
		t.Error("instances not cleared")
	}
}

func TestSystemLostOnGarbage(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 20, scene.WalkSpeed)
	h.run()
	if h.sys.State() != StatusTracking {
		t.Skip("did not reach tracking")
	}
	// Feed keypoints with unknown descriptors: no matches, so the system
	// first tries to relocalize against the retained map...
	garbage := make([]Keypoint, 50)
	for i := range garbage {
		garbage[i] = Keypoint{
			Pixel:      geom.V2(float64(i*5), float64(i*3)),
			Descriptor: uint64(1e12) + uint64(i),
			Sharpness:  1,
		}
	}
	if st := h.sys.ProcessFrame(20, garbage); st != StatusRelocalizing {
		t.Errorf("status = %v, want relocalizing", st)
	}
	// ...and declares the session lost once the relocalization window
	// expires without a single successful match.
	last := StatusRelocalizing
	for i := 21; i < 50 && last == StatusRelocalizing; i++ {
		last = h.sys.ProcessFrame(i, garbage)
	}
	if last != StatusLost {
		t.Errorf("status = %v, want lost after the relocalize window", last)
	}
}

func TestSystemRelocalizesAfterBlankout(t *testing.T) {
	// Tracking loss from a transient blackout (e.g. occluded camera) must
	// recover WITHOUT discarding the map: feed garbage for a few frames,
	// then real features again.
	h := newHarness(t, staticWorld(), sideTraj(), 30, scene.WalkSpeed)
	h.run()
	if h.sys.State() != StatusTracking {
		t.Skip("did not reach tracking")
	}
	mapBefore := h.sys.Map().Len()

	garbage := []Keypoint{{Pixel: geom.V2(1, 1), Descriptor: 1 << 60, Sharpness: 1}}
	for i := 30; i < 34; i++ {
		h.sys.ProcessFrame(i, garbage)
	}
	if h.sys.State() != StatusRelocalizing {
		t.Fatalf("state = %v, want relocalizing", h.sys.State())
	}
	// Real frames return: the system should resume tracking on the old map.
	for i := 34; i < 40; i++ {
		f := h.world.Render(h.cam, sideTraj().PoseAt(float64(i)/scene.FrameRate), float64(i)/scene.FrameRate, i)
		h.sys.ProcessFrame(i, toKeypoints(h.ex.Extract(f, scene.WalkSpeed)))
	}
	if h.sys.State() != StatusTracking {
		t.Fatalf("state = %v, want tracking after relocalization", h.sys.State())
	}
	if h.sys.Map().Len() < mapBefore/2 {
		t.Errorf("map shrank from %d to %d: relocalization should retain it",
			mapBefore, h.sys.Map().Len())
	}
}

func TestSystemFramesObserving(t *testing.T) {
	h := newHarness(t, staticWorld(), sideTraj(), 40, scene.WalkSpeed)
	h.run()
	insts := h.sys.Instances()
	if len(insts) == 0 {
		t.Fatal("no instances")
	}
	frames := h.sys.FramesObserving(insts[0].ID)
	if len(frames) < 2 {
		t.Fatalf("instance observed in %d frames", len(frames))
	}
	// Most recent first.
	for i := 1; i < len(frames); i++ {
		if frames[i] > frames[i-1] {
			t.Fatal("not sorted most recent first")
		}
	}
}

func TestMapCleanup(t *testing.T) {
	m := NewMap()
	for i := 0; i < 100; i++ {
		p := m.Add(geom.V3(float64(i), 0, 5), uint64(i), LabelBackground, 0, i)
		p.LastSeen = i
	}
	removed := m.Cleanup(CleanupPolicy{MaxAge: 20}, 100)
	if removed == 0 || m.Len() != 100-removed {
		t.Errorf("removed=%d len=%d", removed, m.Len())
	}
	m2 := NewMap()
	for i := 0; i < 50; i++ {
		m2.Add(geom.V3(0, 0, 1), uint64(i), LabelBackground, 0, i)
	}
	m2.Cleanup(CleanupPolicy{MaxPoints: 10}, 50)
	if m2.Len() != 10 {
		t.Errorf("len after cap = %d", m2.Len())
	}
	// The retained points are the most recently seen.
	for _, p := range m2.BackgroundPoints() {
		if p.LastSeen < 40 {
			t.Error("kept an old point over a recent one")
		}
	}
}

func TestMapIndexes(t *testing.T) {
	m := NewMap()
	p := m.Add(geom.V3(1, 2, 3), 42, LabelUnknown, 0, 1)
	if m.ByDescriptor(42) != p || m.ByID(p.ID) != p {
		t.Error("index lookup failed")
	}
	if m.UnknownCount() != 1 {
		t.Error("unknown count")
	}
	p.InstanceID = 7
	if got := m.AppendInstancePoints(nil, 7); len(got) != 1 {
		t.Error("instance points")
	}
	if got := m.Instances(); len(got) != 1 || got[0] != 7 {
		t.Errorf("instances = %v", got)
	}
	m.Remove(p.ID)
	if m.Len() != 0 || m.ByDescriptor(42) != nil {
		t.Error("remove failed")
	}
}

func TestStatusString(t *testing.T) {
	for _, st := range []Status{StatusCollecting, StatusInitPairReady, StatusTracking, StatusLost} {
		if st.String() == "" {
			t.Error("empty status string")
		}
	}
	if Status(99).String() == "" {
		t.Error("unknown status should stringify")
	}
}

func TestConfigRelocalizeWindow(t *testing.T) {
	// Garbage frames keep the system relocalizing for relocalizeFrames
	// frames after the failure, then it gives up on the map.
	h := newHarness(t, staticWorld(), sideTraj(), 25, scene.WalkSpeed)
	h.run()
	if h.sys.State() != StatusTracking {
		t.Skip("did not reach tracking")
	}
	garbage := []Keypoint{{Pixel: geom.V2(1, 1), Descriptor: 1 << 59, Sharpness: 1}}
	if st := h.sys.ProcessFrame(25, garbage); st != StatusRelocalizing {
		t.Fatalf("state after the failed frame = %v, want relocalizing", st)
	}
	for i := 26; i <= 25+relocalizeFrames; i++ {
		if st := h.sys.ProcessFrame(i, garbage); st != StatusRelocalizing {
			t.Fatalf("frame %d: state = %v, want relocalizing inside the window", i, st)
		}
	}
	if st := h.sys.ProcessFrame(26+relocalizeFrames, garbage); st != StatusLost {
		t.Errorf("state past the window = %v, want lost", st)
	}
}

func TestConfigCleanupBoundsMap(t *testing.T) {
	// Tracking applies mapCleanup every frame: a long walk leaves points
	// behind, and each one unseen for more than MaxAge frames must be gone.
	walk := scene.WaypointPath{
		Waypoints: []geom.Vec3{geom.V3(-5, 1.6, -2), geom.V3(5, 1.6, -1)},
		Target:    geom.V3(0, 1, 9),
		Speed:     scene.WalkSpeed,
	}
	h := newHarness(t, staticWorld(), walk, 200, scene.WalkSpeed)
	lastSeen := map[int]int{} // point ID -> its LastSeen while still mapped
	var st Status
	for _, f := range h.frames {
		st = h.sys.ProcessFrame(f.Index, toKeypoints(h.ex.Extract(f, h.speed)))
		if st == StatusInitPairReady {
			r, c, _ := h.sys.PendingInitPair()
			_ = h.sys.CompleteInitialization(gtMasks(h.frames[r]), gtMasks(h.frames[c]))
			st = h.sys.State()
		}
		for id, p := range h.sys.world.points {
			lastSeen[id] = p.LastSeen
		}
	}
	if st != StatusTracking {
		t.Fatalf("walk ended %v, want tracking", st)
	}
	final := h.frames[len(h.frames)-1].Index
	aged, kept := 0, 0
	for id, seen := range lastSeen {
		if final-seen > mapCleanup.MaxAge {
			aged++
			if h.sys.world.points[id] != nil {
				kept++
			}
		}
	}
	if aged == 0 {
		t.Fatalf("no point went unseen for %d frames; the walk does not exercise the cleanup", mapCleanup.MaxAge)
	}
	if kept > 0 {
		t.Errorf("%d of %d points unseen for over %d frames are still mapped", kept, aged, mapCleanup.MaxAge)
	}
}
