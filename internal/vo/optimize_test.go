package vo

import (
	"math/rand"
	"testing"

	"edgeis/internal/geom"
)

// synthObservations projects random points through a ground-truth pose.
func synthObservations(rng *rand.Rand, n int, tcw geom.Pose, cam geom.Camera, noise float64) []Observation {
	obs := make([]Observation, 0, n)
	for len(obs) < n {
		p := geom.V3(rng.NormFloat64()*4, rng.NormFloat64()*2, rng.NormFloat64()*4)
		px, err := cam.ProjectWorld(tcw, p)
		if err != nil || !cam.InBounds(px, 0) {
			continue
		}
		px.X += rng.NormFloat64() * noise
		px.Y += rng.NormFloat64() * noise
		obs = append(obs, Observation{Point: p, Pixel: px})
	}
	return obs
}

func gtPose() geom.Pose {
	// Camera behind the origin looking forward.
	return geom.Pose{R: geom.RotY(0.1), T: geom.V3(0.3, -0.1, 8)}
}

func TestOptimizePoseConvergesFromPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cam := geom.StandardCamera(640, 480)
	truth := gtPose()
	obs := synthObservations(rng, 50, truth, cam, 0.3)

	init := geom.Pose{
		R: geom.RotY(0.05).Mul(truth.R),
		T: truth.T.Add(geom.V3(0.2, 0.1, -0.15)),
	}
	res, err := OptimizePose(cam, obs, init, 15)
	if err != nil {
		t.Fatal(err)
	}
	trans, rot := PoseError(res.Pose, truth)
	if trans > 0.05 {
		t.Errorf("translation error = %v", trans)
	}
	if rot > 0.01 {
		t.Errorf("rotation error = %v", rot)
	}
	if res.RMSE > 1.5 {
		t.Errorf("RMSE = %v", res.RMSE)
	}
	if res.Inliers < 45 {
		t.Errorf("inliers = %d", res.Inliers)
	}
}

func TestOptimizePoseRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cam := geom.StandardCamera(640, 480)
	truth := gtPose()
	obs := synthObservations(rng, 60, truth, cam, 0.2)
	// Corrupt 15% of the pixels badly.
	for i := 0; i < 9; i++ {
		obs[i].Pixel = geom.V2(rng.Float64()*640, rng.Float64()*480)
	}
	init := geom.Pose{R: truth.R, T: truth.T.Add(geom.V3(0.1, 0, 0.1))}
	res, err := OptimizePose(cam, obs, init, 15)
	if err != nil {
		t.Fatal(err)
	}
	trans, rot := PoseError(res.Pose, truth)
	if trans > 0.08 || rot > 0.02 {
		t.Errorf("pose error trans=%v rot=%v under outliers", trans, rot)
	}
}

func TestOptimizePoseTooFewObservations(t *testing.T) {
	cam := geom.StandardCamera(640, 480)
	if _, err := OptimizePose(cam, make([]Observation, 2), geom.IdentityPose(), 5); err == nil {
		t.Error("expected error with 2 observations")
	}
}

func TestOptimizePoseExactInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cam := geom.StandardCamera(640, 480)
	truth := gtPose()
	obs := synthObservations(rng, 30, truth, cam, 0)
	res, err := OptimizePose(cam, obs, truth, 5)
	if err != nil {
		t.Fatal(err)
	}
	trans, rot := PoseError(res.Pose, truth)
	if trans > 1e-6 || rot > 1e-6 {
		t.Errorf("exact init drifted: trans=%v rot=%v", trans, rot)
	}
	if res.RMSE > 1e-6 {
		t.Errorf("RMSE = %v on noiseless data", res.RMSE)
	}
}

func TestOptimizePoseMinimalSet(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cam := geom.StandardCamera(640, 480)
	truth := gtPose()
	obs := synthObservations(rng, minObservationsForPose, truth, cam, 0)
	init := geom.Pose{R: truth.R, T: truth.T.Add(geom.V3(0.05, 0, 0))}
	if _, err := OptimizePose(cam, obs, init, 10); err != nil {
		t.Errorf("minimal set failed: %v", err)
	}
}

func TestHuberLossAndWeight(t *testing.T) {
	d2 := huberDelta * huberDelta
	if huberLoss(d2/4) != d2/4 {
		t.Error("quadratic region broken")
	}
	if huberWeight(d2/4) != 1 {
		t.Error("weight in quadratic region should be 1")
	}
	if w := huberWeight(d2 * 100); w >= 0.2 {
		t.Errorf("large residual weight = %v", w)
	}
	// Loss is continuous at the transition.
	lo := huberLoss(d2 * 0.999999)
	hi := huberLoss(d2 * 1.000001)
	if hi-lo > 1e-3 {
		t.Error("loss discontinuous at Huber boundary")
	}
}

// TestPoseAndTriangulationDoNotAllocate pins the allocation-free VO
// kernels: a pose solve and both triangulations run on fixed-size arrays.
func TestPoseAndTriangulationDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	cam := geom.StandardCamera(640, 480)
	truth := gtPose()
	obs := synthObservations(rng, 50, truth, cam, 0.3)
	init := geom.Pose{R: geom.RotY(0.05).Mul(truth.R), T: truth.T.Add(geom.V3(0.2, 0.1, -0.15))}
	if n := testing.AllocsPerRun(20, func() { _, _ = OptimizePose(cam, obs, init, 10) }); n != 0 {
		t.Errorf("OptimizePose allocates %v times per call, want 0", n)
	}

	_, rel, corr, _ := synthTwoView(rng, 1, 0)
	c := corr[0]
	if n := testing.AllocsPerRun(100, func() { _, _ = TriangulatePoint(cam, geom.IdentityPose(), rel, c.P0, c.P1) }); n != 0 {
		t.Errorf("TriangulatePoint allocates %v times per call, want 0", n)
	}
	views := []View{NewView(cam, geom.IdentityPose()), NewView(cam, rel)}
	px := []ViewPixel{{0, c.P0}, {1, c.P1}}
	if n := testing.AllocsPerRun(100, func() { _, _ = TriangulatePointMulti(views, px) }); n != 0 {
		t.Errorf("TriangulatePointMulti allocates %v times per call, want 0", n)
	}
}
