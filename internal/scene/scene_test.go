package scene

import (
	"math"
	"testing"

	"edgeis/internal/geom"
	"edgeis/internal/mask"
)

func testCamera() geom.Camera { return geom.StandardCamera(320, 240) }

func simpleWorld() *World {
	return NewWorld(WorldConfig{Seed: 1}, []*Object{
		{Class: Car, Center: geom.V3(0, 1, 8), Half: geom.V3(1.5, 1, 1)},
	})
}

func TestClassString(t *testing.T) {
	if Car.String() != "car" {
		t.Errorf("Car = %q", Car.String())
	}
	if Background.String() != "background" {
		t.Errorf("Background = %q", Background.String())
	}
	if Class(99).String() == "" {
		t.Error("unknown class should still stringify")
	}
}

func TestObjectPoseStatic(t *testing.T) {
	o := &Object{Center: geom.V3(1, 2, 3), Half: geom.V3(1, 1, 1), Rot: geom.Identity3()}
	p0 := o.PoseAt(0)
	p5 := o.PoseAt(5)
	if p0.T != p5.T {
		t.Error("static object moved")
	}
	if o.Dynamic() {
		t.Error("static object reported dynamic")
	}
}

func TestObjectPoseDynamic(t *testing.T) {
	o := &Object{
		Center: geom.V3(0, 0, 5), Half: geom.V3(1, 1, 1), Rot: geom.Identity3(),
		Motion: Motion{Velocity: geom.V3(1, 0, 0), StartAt: 1},
	}
	if !o.Dynamic() {
		t.Error("dynamic object reported static")
	}
	// Frozen before StartAt.
	if got := o.PoseAt(0.5).T; got != geom.V3(0, 0, 5) {
		t.Errorf("pose before start = %+v", got)
	}
	// Moved 2 m after 2 s of motion.
	got := o.PoseAt(3).T
	want := geom.V3(2, 0, 5)
	if got.DistTo(want) > 1e-9 {
		t.Errorf("pose = %+v, want %+v", got, want)
	}
}

func TestObjectCorners(t *testing.T) {
	o := &Object{Center: geom.V3(0, 0, 0), Half: geom.V3(1, 2, 3), Rot: geom.Identity3()}
	corners := o.Corners(0)
	for _, c := range corners {
		if math.Abs(c.X) != 1 || math.Abs(c.Y) != 2 || math.Abs(c.Z) != 3 {
			t.Fatalf("unexpected corner %+v", c)
		}
	}
}

func TestNewWorldAssignsIDs(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 1}, []*Object{
		{Class: Car, Center: geom.V3(0, 1, 8), Half: geom.V3(1, 1, 1)},
		{Class: Person, Center: geom.V3(3, 1, 8), Half: geom.V3(0.3, 0.9, 0.3)},
	})
	if w.Objects[0].ID != 1 || w.Objects[1].ID != 2 {
		t.Errorf("IDs = %d, %d", w.Objects[0].ID, w.Objects[1].ID)
	}
	if w.ObjectByID(2) != w.Objects[1] {
		t.Error("ObjectByID failed")
	}
	if w.ObjectByID(99) != nil {
		t.Error("ObjectByID should return nil for unknown")
	}
}

func TestWorldHasSurfacePoints(t *testing.T) {
	w := simpleWorld()
	var bg, obj int
	for _, p := range w.Points {
		if p.ObjectID == 0 {
			bg++
		} else {
			obj++
		}
	}
	if bg < 100 {
		t.Errorf("background points = %d", bg)
	}
	if obj < 100 {
		t.Errorf("object points = %d", obj)
	}
	// Object points lie on the box surface.
	o := w.Objects[0]
	for _, p := range w.Points {
		if p.ObjectID != o.ID {
			continue
		}
		onFace := math.Abs(math.Abs(p.Local.X)-o.Half.X) < 1e-9 ||
			math.Abs(math.Abs(p.Local.Y)-o.Half.Y) < 1e-9 ||
			math.Abs(math.Abs(p.Local.Z)-o.Half.Z) < 1e-9
		if !onFace {
			t.Fatalf("surface point off the box: %+v", p.Local)
		}
	}
}

func TestWorldPointAtTracksMotion(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 2}, []*Object{
		{Class: Car, Center: geom.V3(0, 1, 8), Half: geom.V3(1, 1, 1),
			Motion: Motion{Velocity: geom.V3(1, 0, 0)}},
	})
	// Find an object point.
	idx := -1
	for i, p := range w.Points {
		if p.ObjectID != 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no object points")
	}
	p0, _ := w.WorldPointAt(idx, 0)
	p2, _ := w.WorldPointAt(idx, 2)
	if math.Abs(p2.X-p0.X-2) > 1e-9 {
		t.Errorf("point did not move with object: %v -> %v", p0, p2)
	}
}

func TestLookAtPose(t *testing.T) {
	eye := geom.V3(0, 1.6, -5)
	target := geom.V3(0, 1, 8)
	tcw := LookAtPose(eye, target)
	// The target should project near the image center ray: its camera
	// coordinates should have small X, Y relative to Z.
	pc := tcw.Apply(target)
	if pc.Z <= 0 {
		t.Fatalf("target behind camera: %+v", pc)
	}
	if math.Abs(pc.X) > 1e-9 || math.Abs(pc.X)/pc.Z > 0.01 {
		t.Errorf("target off-axis in X: %+v", pc)
	}
	// The camera center must map to the origin.
	if got := tcw.Apply(eye); got.Norm() > 1e-9 {
		t.Errorf("eye maps to %+v", got)
	}
	// Rotation must be orthonormal.
	rrt := tcw.R.Mul(tcw.R.Transpose())
	for i, v := range geom.Identity3() {
		if math.Abs(rrt[i]-v) > 1e-9 {
			t.Fatal("rotation not orthonormal")
		}
	}
}

func TestLookAtPoseDegenerate(t *testing.T) {
	// Looking straight down must not produce NaNs.
	tcw := LookAtPose(geom.V3(0, 5, 0), geom.V3(0, 0, 0))
	for _, v := range tcw.R {
		if math.IsNaN(v) {
			t.Fatal("NaN in straight-down pose")
		}
	}
}

func TestRenderSingleObject(t *testing.T) {
	w := simpleWorld()
	cam := testCamera()
	tcw := LookAtPose(geom.V3(0, 1.6, 0), geom.V3(0, 1, 8))
	f := w.Render(cam, tcw, 0, 0)
	if len(f.Objects) != 1 {
		t.Fatalf("rendered %d objects, want 1", len(f.Objects))
	}
	gt := f.Objects[0]
	if gt.Class != Car || gt.ObjectID != 1 {
		t.Errorf("gt = %+v", gt)
	}
	if gt.Visible.Area() < 100 {
		t.Errorf("visible area = %d, too small", gt.Visible.Area())
	}
	if gt.Depth < 7 || gt.Depth > 9 {
		t.Errorf("depth = %v, want ~8", gt.Depth)
	}
	if gt.Box.Empty() {
		t.Error("empty bounding box")
	}
	// The mask should be centered horizontally.
	c, _ := gt.Visible.CenterOfMass()
	if math.Abs(c.X-160) > 20 {
		t.Errorf("mask center X = %v, want ~160", c.X)
	}
}

func TestRenderOcclusion(t *testing.T) {
	// Two boxes on the same ray: the near one occludes the far one.
	w := NewWorld(WorldConfig{Seed: 3}, []*Object{
		{Class: Car, Center: geom.V3(0, 1, 12), Half: geom.V3(2, 1.2, 1)},
		{Class: Person, Center: geom.V3(0, 1, 6), Half: geom.V3(0.4, 0.8, 0.3)},
	})
	cam := testCamera()
	tcw := LookAtPose(geom.V3(0, 1.2, 0), geom.V3(0, 1, 12))
	f := w.Render(cam, tcw, 0, 0)
	if len(f.Objects) != 2 {
		t.Fatalf("rendered %d objects", len(f.Objects))
	}
	var near, far *GroundTruth
	for i := range f.Objects {
		switch f.Objects[i].Class {
		case Person:
			near = &f.Objects[i]
		case Car:
			far = &f.Objects[i]
		}
	}
	if near == nil || far == nil {
		t.Fatal("missing object")
	}
	// Far object loses pixels to the near one.
	if far.Visible.Area() >= far.Full.Area() {
		t.Error("occlusion did not remove pixels")
	}
	// Near object keeps its full silhouette.
	if near.Visible.Area() != near.Full.Area() {
		t.Error("near object should be unoccluded")
	}
	// Visible masks are disjoint.
	inter := near.Visible.Clone()
	inter.Intersect(far.Visible)
	if inter.Area() != 0 {
		t.Error("visible masks overlap")
	}
}

func TestRenderBehindCamera(t *testing.T) {
	w := simpleWorld()
	cam := testCamera()
	// Face away from the object.
	tcw := LookAtPose(geom.V3(0, 1.6, 0), geom.V3(0, 1, -8))
	f := w.Render(cam, tcw, 0, 0)
	if len(f.Objects) != 0 {
		t.Errorf("rendered %d objects behind camera", len(f.Objects))
	}
}

func TestFrameHelpers(t *testing.T) {
	w := simpleWorld()
	cam := testCamera()
	tcw := LookAtPose(geom.V3(0, 1.6, 0), geom.V3(0, 1, 8))
	f := w.Render(cam, tcw, 0, 0)
	lm := f.LabelMask(Car)
	if got := mask.IoU(lm, f.Objects[0].Visible); got != 1 {
		t.Errorf("label mask IoU = %v", got)
	}
	if !f.LabelMask(Person).Empty() {
		t.Error("no person in scene")
	}
	if f.GroundTruthFor(1) == nil {
		t.Error("GroundTruthFor(1) = nil")
	}
	if f.GroundTruthFor(42) != nil {
		t.Error("GroundTruthFor(42) should be nil")
	}
}

func TestWaypointPath(t *testing.T) {
	p := WaypointPath{
		Waypoints: []geom.Vec3{geom.V3(0, 1.6, 0), geom.V3(10, 1.6, 0)},
		Target:    geom.V3(5, 1, 20),
		Speed:     2,
	}
	if got := p.Duration(); math.Abs(got-5) > 1e-9 {
		t.Errorf("duration = %v, want 5", got)
	}
	// Midpoint at t=2.5.
	eye := p.PoseAt(2.5).CameraCenter()
	if math.Abs(eye.X-5) > 1e-6 {
		t.Errorf("eye.X = %v, want 5", eye.X)
	}
	// Clamp past the end.
	eyeEnd := p.PoseAt(100).CameraCenter()
	if math.Abs(eyeEnd.X-10) > 1e-6 {
		t.Errorf("end eye.X = %v, want 10", eyeEnd.X)
	}
}

func TestWaypointPathBob(t *testing.T) {
	p := InspectionRoute(WalkSpeed)
	heights := map[string]bool{}
	for i := 0; i < 30; i++ {
		eye := p.PoseAt(float64(i) / FrameRate).CameraCenter()
		heights[formatHeight(eye.Y)] = true
	}
	if len(heights) < 3 {
		t.Error("head bob produced no height variation")
	}
}

func formatHeight(h float64) string {
	return string(rune(int(h * 1000))) // bucket by mm
}

func TestOrbitPath(t *testing.T) {
	o := OrbitPath{Center: geom.V3(0, 1, 0), Radius: 5, Height: 1.6, AngVel: 0.5, Length: 10}
	if o.Duration() != 10 {
		t.Error("duration")
	}
	for _, tt := range []float64{0, 1, 3, 7} {
		eye := o.PoseAt(tt).CameraCenter()
		r := math.Hypot(eye.X, eye.Z)
		if math.Abs(r-5) > 1e-6 {
			t.Errorf("t=%v: radius = %v", tt, r)
		}
	}
}

func TestRenderSequence(t *testing.T) {
	w := StreetScene(PresetConfig{Seed: 5, ObjectCount: 3})
	cam := testCamera()
	frames := w.RenderSequence(cam, InspectionRoute(WalkSpeed), 10)
	if len(frames) != 10 {
		t.Fatalf("got %d frames", len(frames))
	}
	rendered := 0
	for i, f := range frames {
		if f.Index != i {
			t.Errorf("frame %d has index %d", i, f.Index)
		}
		rendered += len(f.Objects)
	}
	if rendered == 0 {
		t.Error("no objects rendered along the route")
	}
}

func TestPresets(t *testing.T) {
	tests := []struct {
		name  string
		build func(PresetConfig) *World
	}{
		{"street", StreetScene},
		{"indoor", IndoorScene},
		{"industrial", IndustrialScene},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := tt.build(PresetConfig{Seed: 7, ObjectCount: 5, DynamicCount: 2})
			if len(w.Objects) != 5 {
				t.Fatalf("%d objects", len(w.Objects))
			}
			if len(w.Points) == 0 {
				t.Fatal("no surface points")
			}
			// IDs unique.
			seen := map[int]bool{}
			for _, o := range w.Objects {
				if seen[o.ID] {
					t.Fatal("duplicate ID")
				}
				seen[o.ID] = true
			}
		})
	}
	// Industrial preset ignores DynamicCount (static equipment).
	w := IndustrialScene(PresetConfig{Seed: 1, ObjectCount: 4, DynamicCount: 2})
	if w.DynamicObjectCount() != 0 {
		t.Error("industrial scene should be static")
	}
	// Street honors it.
	ws := StreetScene(PresetConfig{Seed: 1, ObjectCount: 4, DynamicCount: 2})
	if ws.DynamicObjectCount() != 2 {
		t.Errorf("street dynamic = %d", ws.DynamicObjectCount())
	}
}

func TestGaitSpeedOrdering(t *testing.T) {
	if !(WalkSpeed < StrideSpeed && StrideSpeed < JogSpeed) {
		t.Error("gait speeds must be increasing")
	}
}

func TestRenderVisibleMasksAlwaysDisjoint(t *testing.T) {
	// Property: across an entire clip, the visible ground-truth masks of a
	// frame never overlap (the painter pass guarantees exclusivity).
	w := StreetScene(PresetConfig{Seed: 31, ObjectCount: 6, DynamicCount: 2})
	cam := testCamera()
	frames := w.RenderSequence(cam, InspectionRoute(WalkSpeed), 45)
	for _, f := range frames {
		occupied := mask.New(cam.Width, cam.Height)
		for _, gt := range f.Objects {
			overlap := occupied.Clone()
			overlap.Intersect(gt.Visible)
			if overlap.Area() != 0 {
				t.Fatalf("frame %d: overlapping visible masks", f.Index)
			}
			occupied.Union(gt.Visible)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	build := func() *Frame {
		w := StreetScene(PresetConfig{Seed: 33, ObjectCount: 4})
		cam := testCamera()
		return w.Render(cam, InspectionRoute(WalkSpeed).PoseAt(1.0), 1.0, 30)
	}
	a, b := build(), build()
	if len(a.Objects) != len(b.Objects) {
		t.Fatal("nondeterministic object count")
	}
	for i := range a.Objects {
		if mask.IoU(a.Objects[i].Visible, b.Objects[i].Visible) != 1 {
			t.Fatal("nondeterministic mask")
		}
	}
}

func TestRenderVisibleSubsetOfFull(t *testing.T) {
	w := StreetScene(PresetConfig{Seed: 35, ObjectCount: 5})
	cam := testCamera()
	frames := w.RenderSequence(cam, InspectionRoute(WalkSpeed), 30)
	for _, f := range frames {
		for _, gt := range f.Objects {
			diff := gt.Visible.Clone()
			diff.Subtract(gt.Full)
			if diff.Area() != 0 {
				t.Fatalf("frame %d: visible mask exceeds full silhouette", f.Index)
			}
		}
	}
}
