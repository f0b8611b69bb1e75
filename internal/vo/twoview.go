// Package vo implements the visual odometry at the heart of edgeIS's
// motion-aware mobile mask transfer (Section III): two-view initialization
// via the 8-point algorithm (Eq. 1-3), pose-only bundle adjustment tracking
// (Eq. 4-5), a labeled sparse 3-D map, and per-object pose estimation for
// dynamic scenes (Eq. 6-7). The structure follows the ORB-SLAM-derived
// pipeline the paper modifies.
package vo

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"edgeis/internal/geom"
	"edgeis/internal/linalg"
)

// Errors returned by the two-view estimator.
var (
	// ErrNotEnoughMatches indicates fewer than the 8 pairs Eq. 1 requires.
	ErrNotEnoughMatches = errors.New("vo: not enough matches for two-view geometry")
	// ErrDegenerate indicates the solver could not recover a valid pose
	// (planar degenerate set, zero parallax, or cheirality failure).
	ErrDegenerate = errors.New("vo: degenerate two-view configuration")
)

// Correspondence is a pair of pixel observations of the same 3-D point in
// two frames.
type Correspondence struct {
	P0, P1 geom.Vec2
}

// normalization computes the Hartley conditioning transform for a pixel set:
// centroid to origin, mean distance sqrt(2).
func normalization(pts []geom.Vec2) geom.Mat3 {
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(pts))
	cx /= n
	cy /= n
	var meanDist float64
	for _, p := range pts {
		meanDist += math.Hypot(p.X-cx, p.Y-cy)
	}
	meanDist /= n
	s := math.Sqrt2 / math.Max(meanDist, 1e-9)
	return geom.Mat3{
		s, 0, -s * cx,
		0, s, -s * cy,
		0, 0, 1,
	}
}

// eightPoint solves p1^T F p0 = 0 (Eq. 1) for F with Hartley normalization
// and a rank-2 projection. At least 8 correspondences are required.
func eightPoint(corr []Correspondence) (geom.Mat3, error) {
	if len(corr) < 8 {
		return geom.Mat3{}, ErrNotEnoughMatches
	}
	p0s := make([]geom.Vec2, len(corr))
	p1s := make([]geom.Vec2, len(corr))
	for i, c := range corr {
		p0s[i], p1s[i] = c.P0, c.P1
	}
	t0 := normalization(p0s)
	t1 := normalization(p1s)

	var g [81]float64
	for _, c := range corr {
		q0 := t0.MulVec(geom.V3(c.P0.X, c.P0.Y, 1))
		q1 := t1.MulVec(geom.V3(c.P1.X, c.P1.Y, 1))
		// Row: kron(q1, q0) for q1^T F q0 = 0.
		row := [9]float64{
			q1.X * q0.X, q1.X * q0.Y, q1.X,
			q1.Y * q0.X, q1.Y * q0.Y, q1.Y,
			q0.X, q0.Y, 1,
		}
		linalg.AddGramRow(g[:], row[:])
	}
	linalg.MirrorUpper(g[:], 9)
	var fn geom.Mat3
	linalg.NullVector(g[:], fn[:])

	// Enforce rank 2 by zeroing the smallest singular value.
	u, s, v := linalg.SVD3([9]float64(fn))
	var f2 geom.Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			f2[3*r+c] = float64(u[3*r]*s[0]*v[3*c]) + float64(u[3*r+1]*s[1]*v[3*c+1])
		}
	}
	// Denormalize: F = T1^T f2 T0.
	out := t1.Transpose().Mul(f2).Mul(t0)
	return out, nil
}

// epipolarError returns the symmetric epipolar distance of a correspondence
// under F, in pixels.
func epipolarError(f geom.Mat3, c Correspondence) float64 {
	x0 := geom.V3(c.P0.X, c.P0.Y, 1)
	x1 := geom.V3(c.P1.X, c.P1.Y, 1)
	l1 := f.MulVec(x0)             // epipolar line in image 1
	l0 := f.Transpose().MulVec(x1) // epipolar line in image 0
	num := x1.Dot(l1)
	d1 := num * num / math.Max(float64(l1.X*l1.X)+float64(l1.Y*l1.Y), 1e-12)
	d0 := num * num / math.Max(float64(l0.X*l0.X)+float64(l0.Y*l0.Y), 1e-12)
	return math.Sqrt(d0) + math.Sqrt(d1)
}

// EstimateFundamental runs RANSAC around the 8-point solver: random minimal
// samples, inlier counting by symmetric epipolar distance, and a final refit
// on the best inlier set. It returns the fundamental matrix and the inlier
// mask. The paper seeds Eq. 1 with background features because "the pixels
// of background are more likely to be static"; callers pass those.
func EstimateFundamental(corr []Correspondence, inlierThresh float64, iters int, rng *rand.Rand) (geom.Mat3, []bool, error) {
	if len(corr) < 8 {
		return geom.Mat3{}, nil, ErrNotEnoughMatches
	}
	if inlierThresh <= 0 {
		inlierThresh = 2.0
	}
	if iters <= 0 {
		iters = 64
	}
	bestInliers := make([]bool, len(corr))
	bestCount := -1
	sample := make([]Correspondence, 8)
	cur := make([]bool, len(corr))
	for it := 0; it < iters; it++ {
		// Sample 8 distinct indices.
		perm := rng.Perm(len(corr))[:8]
		for i, idx := range perm {
			sample[i] = corr[idx]
		}
		f, err := eightPoint(sample)
		if err != nil {
			continue
		}
		count := 0
		for i, c := range corr {
			ok := epipolarError(f, c) < inlierThresh
			cur[i] = ok
			if ok {
				count++
			}
		}
		if count > bestCount {
			bestCount = count
			copy(bestInliers, cur)
		}
	}
	if bestCount < 8 {
		return geom.Mat3{}, nil, ErrDegenerate
	}
	// Refit on inliers.
	inl := make([]Correspondence, 0, bestCount)
	for i, ok := range bestInliers {
		if ok {
			inl = append(inl, corr[i])
		}
	}
	f, err := eightPoint(inl)
	if err != nil {
		return geom.Mat3{}, nil, err
	}
	return f, bestInliers, nil
}

// RecoverPose decomposes the fundamental matrix into the relative pose
// T_10 = [R_10 | t_10] between the two cameras (Eq. 2), resolving the
// four-fold ambiguity with a cheirality vote over the correspondences.
// The translation has unit norm (monocular scale is arbitrary).
func RecoverPose(f geom.Mat3, cam geom.Camera, corr []Correspondence) (geom.Pose, error) {
	// E = K^T F K.
	k := cam.K()
	e := k.Transpose().Mul(f).Mul(k)
	u, _, v := linalg.SVD3([9]float64(e))

	um := geom.Mat3(u)
	vm := geom.Mat3(v) // columns are right singular vectors
	// Ensure rotations are proper.
	if um.Det() < 0 {
		um = um.Scale(-1)
	}
	if vm.Det() < 0 {
		vm = vm.Scale(-1)
	}
	w := geom.Mat3{
		0, -1, 0,
		1, 0, 0,
		0, 0, 1,
	}
	r1 := um.Mul(w).Mul(vm.Transpose())
	r2 := um.Mul(w.Transpose()).Mul(vm.Transpose())
	r1 = geom.OrthonormalizeRotation(r1)
	r2 = geom.OrthonormalizeRotation(r2)
	tvec := um.Col(2)

	// Vote only with correspondences that carry enough parallax to
	// triangulate stably; near-zero-parallax pairs add noise.
	voters := make([]Correspondence, 0, len(corr))
	for _, c := range corr {
		if c.P0.DistTo(c.P1) >= 2 {
			voters = append(voters, c)
		}
	}
	if len(voters) < 8 {
		voters = corr
	}

	best := geom.Pose{}
	bestGood, secondGood := -1, -1
	for _, r := range []geom.Mat3{r1, r2} {
		for _, sign := range []float64{1, -1} {
			cand := geom.Pose{R: r, T: tvec.Scale(sign)}
			good := 0
			for _, c := range voters {
				p, err := TriangulatePoint(cam, geom.IdentityPose(), cand, c.P0, c.P1)
				if err != nil {
					continue
				}
				// In front of both cameras?
				if p.Z > 0 && cand.Apply(p).Z > 0 {
					good++
				}
			}
			if good > bestGood {
				bestGood, secondGood = good, bestGood
				best = cand
			} else if good > secondGood {
				secondGood = good
			}
		}
	}
	// The true solution should dominate: most points in front, and a clear
	// margin over the runner-up (H&Z cheirality disambiguation).
	if bestGood < 8 || float64(bestGood) < 0.7*float64(len(voters)) ||
		float64(secondGood) > 0.8*float64(bestGood) {
		return geom.Pose{}, ErrDegenerate
	}
	return best, nil
}

// View is one camera of a triangulation: its pose and its projection
// matrix K[R|t].
type View struct {
	Pose geom.Pose
	P    [3][4]float64
}

// NewView builds the view of a camera at pose.
func NewView(cam geom.Camera, pose geom.Pose) View {
	k := cam.K()
	m := k.Mul(pose.R)
	kt := k.MulVec(pose.T)
	return View{Pose: pose, P: [3][4]float64{
		{m[0], m[1], m[2], kt.X},
		{m[3], m[4], m[5], kt.Y},
		{m[6], m[7], m[8], kt.Z},
	}}
}

// addDLTRows accumulates the two DLT rows of one observation, u*P3 - P1 and
// v*P3 - P2, into the 4x4 Gram matrix g.
func addDLTRows(g *[16]float64, p *[3][4]float64, px geom.Vec2) {
	var ru, rv [4]float64
	for c := 0; c < 4; c++ {
		ru[c] = float64(px.X*p[2][c]) - p[0][c]
		rv[c] = float64(px.Y*p[2][c]) - p[1][c]
	}
	linalg.AddGramRow(g[:], ru[:])
	linalg.AddGramRow(g[:], rv[:])
}

// solveDLT returns the point whose homogeneous coordinates span the null
// space of the DLT system with Gram matrix g (upper triangle filled).
func solveDLT(g *[16]float64) (geom.Vec3, error) {
	linalg.MirrorUpper(g[:], 4)
	var h [4]float64
	linalg.NullVector(g[:], h[:])
	if math.Abs(h[3]) < 1e-12 {
		return geom.Vec3{}, ErrDegenerate
	}
	p := geom.V3(h[0]/h[3], h[1]/h[3], h[2]/h[3])
	if !p.IsFinite() {
		return geom.Vec3{}, ErrDegenerate
	}
	return p, nil
}

// TriangulatePoint linearly triangulates a 3-D point (in the coordinate
// frame of pose0's source) from two observations with known poses — the
// workhorse behind Eq. 3 and all map expansion.
func TriangulatePoint(cam geom.Camera, pose0, pose1 geom.Pose, p0, p1 geom.Vec2) (geom.Vec3, error) {
	v0, v1 := NewView(cam, pose0), NewView(cam, pose1)
	var g [16]float64
	addDLTRows(&g, &v0.P, p0)
	addDLTRows(&g, &v1.P, p1)
	p, err := solveDLT(&g)
	if err != nil {
		return geom.Vec3{}, err
	}
	// Reject points behind the first camera.
	if pose0.Apply(p).Z <= 0 {
		return geom.Vec3{}, ErrDegenerate
	}
	return p, nil
}

// ViewPixel is one observation of a point: the pixel it was seen at in
// views[View].
type ViewPixel struct {
	View  int
	Pixel geom.Vec2
}

// TriangulatePointMulti linearly triangulates a point from two or more
// observations in views with known poses (multi-view DLT). It generalizes
// TriangulatePoint for the local bundle adjustment sweep, which builds each
// window frame's view once and shares it among the points it observes.
func TriangulatePointMulti(views []View, obs []ViewPixel) (geom.Vec3, error) {
	if len(obs) < 2 {
		return geom.Vec3{}, ErrNotEnoughMatches
	}
	var g [16]float64
	for _, o := range obs {
		addDLTRows(&g, &views[o.View].P, o.Pixel)
	}
	p, err := solveDLT(&g)
	if err != nil {
		return geom.Vec3{}, err
	}
	for _, o := range obs {
		if views[o.View].Pose.Apply(p).Z <= 0 {
			return geom.Vec3{}, ErrDegenerate
		}
	}
	return p, nil
}

// MeanParallax returns the mean pixel displacement of the correspondences —
// the "enough parallax" test of the initializer (Section III-A).
func MeanParallax(corr []Correspondence) float64 {
	if len(corr) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range corr {
		sum += c.P0.DistTo(c.P1)
	}
	return sum / float64(len(corr))
}

// MedianParallax returns the median pixel displacement — more robust than
// the mean when distant background points dilute the statistic.
func MedianParallax(corr []Correspondence) float64 {
	if len(corr) == 0 {
		return 0
	}
	ds := make([]float64, len(corr))
	for i, c := range corr {
		ds[i] = c.P0.DistTo(c.P1)
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}
