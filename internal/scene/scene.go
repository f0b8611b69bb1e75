// Package scene implements the synthetic 3-D world that substitutes for the
// paper's video datasets (DAVIS, KITTI, Xiph and the self-labeled AR clips).
// A World holds polyhedral objects with class labels and optional rigid
// motion, plus background surfaces carrying trackable texture points. Frames
// rendered through a pinhole camera yield pixel-exact ground-truth instance
// masks with occlusion, which every experiment uses as its reference.
package scene

import (
	"fmt"
	"math"
	"math/rand"

	"edgeis/internal/geom"
	"edgeis/internal/mask"
)

// Class identifies an object category. The catalogue covers both the street
// scenes of the public datasets and the industrial equipment of the
// oil-field case study.
type Class int

// Object classes. Background is the zero value and never labels an instance.
const (
	Background Class = iota
	Person
	Car
	Truck
	Bus
	Bicycle
	Dog
	OilSeparator
	Tube
	Pump
	Valve
	Tank
	Gauge
)

var classNames = map[Class]string{
	Background:   "background",
	Person:       "person",
	Car:          "car",
	Truck:        "truck",
	Bus:          "bus",
	Bicycle:      "bicycle",
	Dog:          "dog",
	OilSeparator: "oil-separator",
	Tube:         "tube",
	Pump:         "pump",
	Valve:        "valve",
	Tank:         "tank",
	Gauge:        "gauge",
}

// String returns the lowercase class name.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Motion describes a rigid-body motion: constant linear velocity plus a
// constant angular velocity (axis-angle rate, rad/s) about the object
// center. The zero Motion leaves the object static.
type Motion struct {
	Velocity geom.Vec3 // m/s in world coordinates
	AngVel   geom.Vec3 // rad/s, axis-angle rate about the object center
	StartAt  float64   // seconds; motion is frozen before this time
}

// IsZero reports whether the motion leaves the object static.
func (m Motion) IsZero() bool {
	return m.Velocity == (geom.Vec3{}) && m.AngVel == (geom.Vec3{})
}

// Object is a box-shaped scene instance. The box is axis-aligned in the
// object's local frame; the pose at time t places it in the world.
type Object struct {
	ID     int
	Class  Class
	Center geom.Vec3 // world position at t=0
	Half   geom.Vec3 // half extents in the local frame
	Rot    geom.Mat3 // orientation at t=0
	Motion Motion
}

// PoseAt returns the object-to-world transform T_WO at time t.
func (o *Object) PoseAt(t float64) geom.Pose {
	dt := t - o.Motion.StartAt
	if dt < 0 || o.Motion.IsZero() {
		dt = math.Max(0, dt)
	}
	r := o.Rot
	c := o.Center
	if dt > 0 && !o.Motion.IsZero() {
		r = geom.Rodrigues(o.Motion.AngVel.Scale(dt)).Mul(o.Rot)
		c = o.Center.Add(o.Motion.Velocity.Scale(dt))
	}
	return geom.Pose{R: r, T: c}
}

// Dynamic reports whether the object ever moves.
func (o *Object) Dynamic() bool { return !o.Motion.IsZero() }

// Corners returns the eight box corners in world coordinates at time t.
func (o *Object) Corners(t float64) [8]geom.Vec3 {
	pose := o.PoseAt(t)
	var out [8]geom.Vec3
	i := 0
	for _, sx := range [2]float64{-1, 1} {
		for _, sy := range [2]float64{-1, 1} {
			for _, sz := range [2]float64{-1, 1} {
				local := geom.V3(sx*o.Half.X, sy*o.Half.Y, sz*o.Half.Z)
				out[i] = pose.Apply(local)
				i++
			}
		}
	}
	return out
}

// SurfacePoint is a trackable texture anchor: a fixed point on an object
// surface (or the static background) with a stable descriptor identity the
// synthetic feature extractor can re-detect across frames.
type SurfacePoint struct {
	ObjectID   int       // 0 for background
	Local      geom.Vec3 // position in the owner's local frame (world frame for background)
	Normal     geom.Vec3 // outward surface normal in the owner's local frame
	Descriptor uint64    // stable identity used for matching
}

// World is a complete synthetic scene: labeled objects plus background
// geometry carrying surface texture.
type World struct {
	Objects []*Object
	// Points carries all surface texture anchors, background first.
	Points []SurfacePoint
	// Bounds is the half-extent of the ground plane in X and Z.
	Bounds float64
}

// WorldConfig controls procedural world generation.
type WorldConfig struct {
	Seed   int64
	Bounds float64 // ground half-extent (m); default 30
}

// Texture anchor counts of a generated world.
const (
	// backgroundPoints anchors go on the ground and walls.
	backgroundPoints = 600
	// pointsPerObject anchors go on each object's faces.
	pointsPerObject = 120
	// contourPointBoost extra anchors per object hug its box edges.
	contourPointBoost = 40
)

// NewWorld builds a world containing the given objects and procedurally
// generated surface texture. Object IDs are assigned (1-based) if unset.
func NewWorld(cfg WorldConfig, objects []*Object) *World {
	if cfg.Bounds == 0 {
		cfg.Bounds = 30
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{Objects: objects, Bounds: cfg.Bounds}
	for i, o := range objects {
		if o.ID == 0 {
			o.ID = i + 1
		}
		if o.Rot == (geom.Mat3{}) {
			o.Rot = geom.Identity3()
		}
	}
	w.Points = make([]SurfacePoint, 0,
		backgroundPoints+len(objects)*(pointsPerObject+contourPointBoost))
	w.generateBackgroundPoints(rng)
	for _, o := range objects {
		w.generateObjectPoints(o, rng)
	}
	return w
}

// generateBackgroundPoints scatters anchors over the ground plane (y=0) and
// two far walls so that every viewpoint sees static texture — the points the
// VO prefers for ego-motion estimation ("pixels of background are more
// likely to be static", Section III-A).
func (w *World) generateBackgroundPoints(rng *rand.Rand) {
	ground := backgroundPoints * 2 / 3
	for i := 0; i < ground; i++ {
		w.Points = append(w.Points, SurfacePoint{
			ObjectID:   0,
			Local:      geom.V3((rng.Float64()*2-1)*w.Bounds, 0, (rng.Float64()*2-1)*w.Bounds),
			Normal:     geom.V3(0, 1, 0),
			Descriptor: rng.Uint64(),
		})
	}
	// Walls at +/-Bounds in Z facing inward, up to 6m high.
	for i := ground; i < backgroundPoints; i++ {
		z := w.Bounds
		normal := geom.V3(0, 0, -1)
		if i%2 == 0 {
			z = -w.Bounds
			normal = geom.V3(0, 0, 1)
		}
		w.Points = append(w.Points, SurfacePoint{
			ObjectID:   0,
			Local:      geom.V3((rng.Float64()*2-1)*w.Bounds, rng.Float64()*6, z),
			Normal:     normal,
			Descriptor: rng.Uint64(),
		})
	}
}

// generateObjectPoints scatters anchors over the six box faces. A fraction
// of the anchors hug face borders, mirroring edgeIS's preference for
// features "near the edge of the mask" (Section III-A).
func (w *World) generateObjectPoints(o *Object, rng *rand.Rand) {
	sample := func(edgeBiased bool) SurfacePoint {
		face := rng.Intn(6)
		axis := face / 2 // 0=x, 1=y, 2=z
		sign := 1 - 2*float64(face%2)
		u := rng.Float64()*2 - 1
		v := rng.Float64()*2 - 1
		if edgeBiased {
			// Push one coordinate toward a border.
			if rng.Intn(2) == 0 {
				u = math.Copysign(0.85+0.15*rng.Float64(), u)
			} else {
				v = math.Copysign(0.85+0.15*rng.Float64(), v)
			}
		}
		var local, normal geom.Vec3
		switch axis {
		case 0:
			local = geom.V3(sign*o.Half.X, u*o.Half.Y, v*o.Half.Z)
			normal = geom.V3(sign, 0, 0)
		case 1:
			local = geom.V3(u*o.Half.X, sign*o.Half.Y, v*o.Half.Z)
			normal = geom.V3(0, sign, 0)
		default:
			local = geom.V3(u*o.Half.X, v*o.Half.Y, sign*o.Half.Z)
			normal = geom.V3(0, 0, sign)
		}
		return SurfacePoint{
			ObjectID:   o.ID,
			Local:      local,
			Normal:     normal,
			Descriptor: rng.Uint64(),
		}
	}
	for i := 0; i < pointsPerObject; i++ {
		w.Points = append(w.Points, sample(false))
	}
	for i := 0; i < contourPointBoost; i++ {
		w.Points = append(w.Points, sample(true))
	}
}

// ObjectByID returns the object with the given ID, or nil.
func (w *World) ObjectByID(id int) *Object {
	for _, o := range w.Objects {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// DynamicObjectCount returns how many objects carry nonzero motion.
func (w *World) DynamicObjectCount() int {
	n := 0
	for _, o := range w.Objects {
		if o.Dynamic() {
			n++
		}
	}
	return n
}

// WorldPointAt returns the world position and normal of surface point i at
// time t, resolving object motion.
func (w *World) WorldPointAt(i int, t float64) (pos, normal geom.Vec3) {
	sp := w.Points[i]
	if sp.ObjectID == 0 {
		return sp.Local, sp.Normal
	}
	o := w.ObjectByID(sp.ObjectID)
	if o == nil {
		return sp.Local, sp.Normal
	}
	pose := o.PoseAt(t)
	return pose.Apply(sp.Local), pose.R.MulVec(sp.Normal)
}

// GroundTruth is the rendered ground truth for a single object instance in
// one frame.
type GroundTruth struct {
	ObjectID int
	Class    Class
	Visible  *mask.Bitmask // silhouette minus occluders
	Full     *mask.Bitmask // silhouette ignoring occlusion
	Depth    float64       // distance from camera to object center
	Box      mask.Box      // bounding box of Visible
	Dynamic  bool
}

// Frame is one rendered camera frame with full ground truth.
type Frame struct {
	Index   int
	Time    float64
	TCW     geom.Pose // world-to-camera pose
	Camera  geom.Camera
	Objects []GroundTruth // sorted near-to-far, only non-empty Visible
}

// LabelMask returns the union of visible masks for all instances of class c
// (or all classes when c is Background).
func (f *Frame) LabelMask(c Class) *mask.Bitmask {
	out := mask.New(f.Camera.Width, f.Camera.Height)
	for _, gt := range f.Objects {
		if c == Background || gt.Class == c {
			out.Union(gt.Visible)
		}
	}
	return out
}

// GroundTruthFor returns the ground truth of an object in this frame, or nil.
func (f *Frame) GroundTruthFor(objectID int) *GroundTruth {
	for i := range f.Objects {
		if f.Objects[i].ObjectID == objectID {
			return &f.Objects[i]
		}
	}
	return nil
}

// minVisibleArea is the smallest visible pixel area for an instance to count
// as present in a frame's ground truth — objects below ~9x9 pixels are too
// small to annotate meaningfully (the paper's hand-labeled masks share this
// practical floor).
const minVisibleArea = 80

// Render projects the world into the camera at time t and computes visible
// ground-truth masks using a painter's pass (near occludes far).
func (w *World) Render(cam geom.Camera, tcw geom.Pose, t float64, index int) *Frame {
	f := &Frame{Index: index, Time: t, TCW: tcw, Camera: cam}

	type proj struct {
		obj   *Object
		sil   *mask.Bitmask
		depth float64
	}
	projs := make([]proj, 0, len(w.Objects))
	for _, o := range w.Objects {
		sil, depth, ok := projectSilhouette(o, cam, tcw, t)
		if !ok {
			continue
		}
		projs = append(projs, proj{obj: o, sil: sil, depth: depth})
	}
	// Near-to-far painter ordering.
	for i := 1; i < len(projs); i++ {
		for j := i; j > 0 && projs[j].depth < projs[j-1].depth; j-- {
			projs[j], projs[j-1] = projs[j-1], projs[j]
		}
	}
	occluded := mask.New(cam.Width, cam.Height)
	for _, p := range projs {
		visible := p.sil.Clone()
		visible.Subtract(occluded)
		occluded.Union(p.sil)
		if visible.Area() < minVisibleArea {
			continue
		}
		f.Objects = append(f.Objects, GroundTruth{
			ObjectID: p.obj.ID,
			Class:    p.obj.Class,
			Visible:  visible,
			Full:     p.sil,
			Depth:    p.depth,
			Box:      visible.BoundingBox(),
			Dynamic:  p.obj.Dynamic(),
		})
	}
	return f
}

// projectSilhouette projects the box corners and fills the convex hull.
// Objects with any corner behind the near plane are skipped (conservative
// clipping; scene layouts keep subjects comfortably in front).
func projectSilhouette(o *Object, cam geom.Camera, tcw geom.Pose, t float64) (*mask.Bitmask, float64, bool) {
	corners := o.Corners(t)
	pts := make([]geom.Vec2, 0, 8)
	for _, c := range corners {
		pc := tcw.Apply(c)
		if pc.Z < 0.05 {
			return nil, 0, false
		}
		px, err := cam.Project(pc)
		if err != nil {
			return nil, 0, false
		}
		pts = append(pts, px)
	}
	hull := geom.ConvexHull(pts)
	if len(hull) < 3 {
		return nil, 0, false
	}
	// Quick reject: hull entirely outside the image.
	inAny := false
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range hull {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX >= 0 && minX < float64(cam.Width) && maxY >= 0 && minY < float64(cam.Height) {
		inAny = true
	}
	if !inAny {
		return nil, 0, false
	}
	sil := mask.FillPolygon(hull, cam.Width, cam.Height)
	if sil.Empty() {
		return nil, 0, false
	}
	depth := tcw.Apply(o.PoseAt(t).T).Z
	return sil, depth, true
}
