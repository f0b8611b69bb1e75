package vo

import (
	"math"
	"math/rand"
	"testing"

	"edgeis/internal/geom"
)

// synthTwoView builds ground-truth correspondences between two cameras
// observing random points.
func synthTwoView(rng *rand.Rand, n int, noise float64) (cam geom.Camera, rel geom.Pose, corr []Correspondence, pts []geom.Vec3) {
	cam = geom.StandardCamera(640, 480)
	// Camera 0 at origin; camera 1 translated and slightly rotated.
	rel = geom.Pose{
		R: geom.RotY(0.08).Mul(geom.RotX(-0.03)),
		T: geom.V3(0.4, 0.05, 0.1),
	}
	for len(corr) < n {
		p := geom.V3(rng.NormFloat64()*3, rng.NormFloat64()*2, 6+rng.Float64()*8)
		px0, err0 := cam.Project(p)
		px1, err1 := cam.Project(rel.Apply(p))
		if err0 != nil || err1 != nil {
			continue
		}
		if !cam.InBounds(px0, 0) || !cam.InBounds(px1, 0) {
			continue
		}
		px0.X += rng.NormFloat64() * noise
		px0.Y += rng.NormFloat64() * noise
		px1.X += rng.NormFloat64() * noise
		px1.Y += rng.NormFloat64() * noise
		corr = append(corr, Correspondence{P0: px0, P1: px1})
		pts = append(pts, p)
	}
	return cam, rel, corr, pts
}

func TestEightPointPerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, _, corr, _ := synthTwoView(rng, 40, 0)
	f, err := eightPoint(corr)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corr {
		if e := epipolarError(f, c); e > 0.1 {
			t.Fatalf("correspondence %d: epipolar error %v", i, e)
		}
	}
}

func TestEightPointTooFew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, _, corr, _ := synthTwoView(rng, 7, 0)
	if _, err := eightPoint(corr); err == nil {
		t.Error("expected ErrNotEnoughMatches")
	}
}

func TestEstimateFundamentalWithOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, _, corr, _ := synthTwoView(rng, 80, 0.3)
	// Corrupt 20% of the correspondences.
	nOut := len(corr) / 5
	for i := 0; i < nOut; i++ {
		corr[i].P1 = geom.V2(rng.Float64()*640, rng.Float64()*480)
	}
	f, inliers, err := EstimateFundamental(corr, 2, 128, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Most clean correspondences should be inliers.
	cleanIn := 0
	for i := nOut; i < len(corr); i++ {
		if inliers[i] {
			cleanIn++
		}
	}
	if frac := float64(cleanIn) / float64(len(corr)-nOut); frac < 0.8 {
		t.Errorf("clean inlier fraction = %v", frac)
	}
	// Epipolar error on clean pairs is small.
	sum := 0.0
	for i := nOut; i < len(corr); i++ {
		sum += epipolarError(f, corr[i])
	}
	if mean := sum / float64(len(corr)-nOut); mean > 2.5 {
		t.Errorf("mean epipolar error = %v", mean)
	}
}

func TestRecoverPoseDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cam, rel, corr, _ := synthTwoView(rng, 60, 0.2)
	f, _, err := EstimateFundamental(corr, 2, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecoverPose(f, cam, corr)
	if err != nil {
		t.Fatal(err)
	}
	// Rotation should match closely.
	if ang := got.RotationAngle(rel); ang > 0.02 {
		t.Errorf("rotation error = %v rad", ang)
	}
	// Translation direction (unit norm) should match.
	want := rel.T.Normalized()
	gotT := got.T.Normalized()
	if want.Sub(gotT).Norm() > 0.05 {
		t.Errorf("translation direction %+v, want %+v", gotT, want)
	}
	if math.Abs(got.T.Norm()-1) > 1e-6 {
		t.Errorf("translation not unit norm: %v", got.T.Norm())
	}
}

func TestTriangulatePointKnownPoses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cam, rel, corr, pts := synthTwoView(rng, 30, 0)
	for i, c := range corr {
		got, err := TriangulatePoint(cam, geom.IdentityPose(), rel, c.P0, c.P1)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if got.DistTo(pts[i]) > 0.01*pts[i].Norm() {
			t.Fatalf("point %d: got %+v, want %+v", i, got, pts[i])
		}
	}
}

func TestTriangulatePointBehindCamera(t *testing.T) {
	cam := geom.StandardCamera(640, 480)
	rel := geom.Pose{R: geom.Identity3(), T: geom.V3(0.5, 0, 0)}
	// Parallel rays (same pixel in both): degenerate.
	if _, err := TriangulatePoint(cam, geom.IdentityPose(), geom.IdentityPose(),
		geom.V2(320, 240), geom.V2(320, 240)); err == nil {
		t.Error("expected degenerate for identical poses")
	}
	_ = rel
}

func TestMeanParallax(t *testing.T) {
	corr := []Correspondence{
		{P0: geom.V2(0, 0), P1: geom.V2(3, 4)},
		{P0: geom.V2(10, 10), P1: geom.V2(10, 10)},
	}
	if got := MeanParallax(corr); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("parallax = %v, want 2.5", got)
	}
	if MeanParallax(nil) != 0 {
		t.Error("empty parallax should be 0")
	}
}

func TestEstimateFundamentalNotEnough(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, _, err := EstimateFundamental(make([]Correspondence, 5), 2, 10, rng); err == nil {
		t.Error("expected error with 5 correspondences")
	}
}

// TestTriangulatePointMultiKnownPoses recovers points from three views, the
// middle one shared by the observations, and agrees with the two-view
// solver on the two-view subset.
func TestTriangulatePointMultiKnownPoses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cam, rel, corr, pts := synthTwoView(rng, 30, 0)
	third := geom.Pose{R: geom.RotY(-0.05), T: geom.V3(-0.3, 0.02, 0.05)}
	views := []View{NewView(cam, geom.IdentityPose()), NewView(cam, third), NewView(cam, rel)}
	for i, c := range corr {
		px2, err := cam.Project(third.Apply(pts[i]))
		if err != nil {
			continue
		}
		got, err := TriangulatePointMulti(views, []ViewPixel{{0, c.P0}, {1, px2}, {2, c.P1}})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if got.DistTo(pts[i]) > 0.01*pts[i].Norm() {
			t.Fatalf("point %d: got %+v, want %+v", i, got, pts[i])
		}
		two, err := TriangulatePointMulti(views, []ViewPixel{{0, c.P0}, {2, c.P1}})
		want, err2 := TriangulatePoint(cam, geom.IdentityPose(), rel, c.P0, c.P1)
		if err != nil || err2 != nil || two != want {
			t.Fatalf("point %d: two-view multi %+v (%v), TriangulatePoint %+v (%v)", i, two, err, want, err2)
		}
	}
	if _, err := TriangulatePointMulti(views, []ViewPixel{{0, corr[0].P0}}); err == nil {
		t.Error("one observation should not triangulate")
	}
}
