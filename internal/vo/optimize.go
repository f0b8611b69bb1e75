package vo

import (
	"math"

	"edgeis/internal/geom"
	"edgeis/internal/linalg"
)

// Observation binds a 3-D point (in some reference frame) to its measured
// pixel in the current image.
type Observation struct {
	Point geom.Vec3
	Pixel geom.Vec2
}

// OptimizeResult reports the outcome of a pose optimization.
type OptimizeResult struct {
	Pose    geom.Pose
	Inliers int
	// RMSE is the root-mean-square reprojection error over inliers, px.
	RMSE float64
}

// minObservationsForPose is the minimum observation count for a pose solve —
// the paper notes "performing BA requires at least 3 pairs of 3-D points and
// matched features" (Section III-B).
const minObservationsForPose = 3

// huberDelta is the robust-loss width in pixels for pose optimization.
const huberDelta = 3.0

// OptimizePose minimizes the total reprojection error of Eq. 4 with
// Gauss-Newton over SE(3), using a Huber weighting for robustness and
// Levenberg damping for stability. init is the starting world-to-camera
// (or object-to-camera) pose.
func OptimizePose(cam geom.Camera, obs []Observation, init geom.Pose, iterations int) (OptimizeResult, error) {
	if len(obs) < minObservationsForPose {
		return OptimizeResult{}, ErrNotEnoughMatches
	}
	if iterations <= 0 {
		iterations = 10
	}
	pose := init
	lambda := 1e-4

	cost := func(p geom.Pose) float64 {
		sum := 0.0
		for _, o := range obs {
			px, err := cam.ProjectWorld(p, o.Point)
			if err != nil {
				sum += huberDelta * huberDelta * 4
				continue
			}
			r2 := px.Sub(o.Pixel).Dot(px.Sub(o.Pixel))
			sum += huberLoss(r2)
		}
		return sum
	}

	prevCost := cost(pose)
	for it := 0; it < iterations; it++ {
		// Normal equations H*delta = b, accumulated upper triangle first
		// and then mirrored, with every product rounded before its sum.
		var h [36]float64
		var b [6]float64
		for _, o := range obs {
			pc := pose.Apply(o.Point)
			if pc.Z <= 1e-6 {
				continue
			}
			px, err := cam.Project(pc)
			if err != nil {
				continue
			}
			rx := px.X - o.Pixel.X
			ry := px.Y - o.Pixel.Y
			w := huberWeight(float64(rx*rx) + float64(ry*ry))

			// Jacobian of pixel wrt left-multiplied se(3) increment:
			// d(u,v)/d(pc) * [I | -pc^].
			invZ := 1 / pc.Z
			invZ2 := invZ * invZ
			du := [3]float64{cam.Fx * invZ, 0, -cam.Fx * pc.X * invZ2}
			dv := [3]float64{0, cam.Fy * invZ, -cam.Fy * pc.Y * invZ2}
			var ju, jv [6]float64
			// Translation block: identity.
			copy(ju[:3], du[:])
			copy(jv[:3], dv[:])
			// Rotation block: -(d/dpc) * skew(pc).
			sk := geom.Skew(pc)
			for c := 0; c < 3; c++ {
				var su, sv float64
				for k := 0; k < 3; k++ {
					su += float64(du[k] * sk.At(k, c))
					sv += float64(dv[k] * sk.At(k, c))
				}
				ju[3+c] = -su
				jv[3+c] = -sv
			}
			for i := 0; i < 6; i++ {
				for j := i; j < 6; j++ {
					h[i*6+j] += float64(w * (float64(ju[i]*ju[j]) + float64(jv[i]*jv[j])))
				}
				b[i] -= float64(w * (float64(ju[i]*rx) + float64(jv[i]*ry)))
			}
		}
		linalg.MirrorUpper(h[:], 6)
		delta, err := linalg.SolveCholesky(&h, b, lambda)
		if err != nil {
			lambda *= 10
			if lambda > 1e3 {
				break
			}
			continue
		}
		cand := pose.Exp(
			geom.V3(delta[0], delta[1], delta[2]),
			geom.V3(delta[3], delta[4], delta[5]),
		)
		c := cost(cand)
		if c < prevCost {
			pose = cand
			prevCost = c
			lambda = math.Max(lambda*0.5, 1e-6)
			// Converged when the update is negligible.
			if normSq(delta) < 1e-16 {
				break
			}
		} else {
			lambda *= 10
			if lambda > 1e3 {
				break
			}
		}
	}

	// Final inlier accounting.
	inliers := 0
	sumSq := 0.0
	for _, o := range obs {
		px, err := cam.ProjectWorld(pose, o.Point)
		if err != nil {
			continue
		}
		d2 := px.Sub(o.Pixel).Dot(px.Sub(o.Pixel))
		if d2 < huberDelta*huberDelta*4 {
			inliers++
			sumSq += d2
		}
	}
	if inliers < minObservationsForPose {
		return OptimizeResult{}, ErrDegenerate
	}
	return OptimizeResult{
		Pose:    pose,
		Inliers: inliers,
		RMSE:    math.Sqrt(sumSq / float64(inliers)),
	}, nil
}

// huberLoss returns the Huber cost for a squared residual.
func huberLoss(r2 float64) float64 {
	if r2 <= huberDelta*huberDelta {
		return r2
	}
	r := math.Sqrt(r2)
	return float64(2*huberDelta*r) - huberDelta*huberDelta
}

// huberWeight returns the IRLS weight for a squared residual.
func huberWeight(r2 float64) float64 {
	if r2 <= huberDelta*huberDelta {
		return 1
	}
	return huberDelta / math.Sqrt(r2)
}

func normSq(v [6]float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	return s
}
