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
//
// Each iteration makes one pass over the observations: the candidate's
// linearization costs the step and, once the step is accepted, is the next
// iteration's normal equations. A rejected step or a failed factorization
// keeps the current pose's equations, and the result's inlier count and
// RMSE come from the last accepted linearization.
func OptimizePose(cam geom.Camera, obs []Observation, init geom.Pose, iterations int) (OptimizeResult, error) {
	if len(obs) < minObservationsForPose {
		return OptimizeResult{}, ErrNotEnoughMatches
	}
	if iterations <= 0 {
		iterations = 10
	}
	pose := init
	lambda := 1e-4

	cur := linearize(cam, obs, pose)
	for it := 0; it < iterations; it++ {
		delta, err := linalg.SolveCholesky(&cur.h, cur.b, lambda)
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
		next := linearize(cam, obs, cand)
		if next.cost < cur.cost {
			pose = cand
			cur = next
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

	if cur.inliers < minObservationsForPose {
		return OptimizeResult{}, ErrDegenerate
	}
	return OptimizeResult{
		Pose:    pose,
		Inliers: cur.inliers,
		RMSE:    math.Sqrt(cur.sumSq / float64(cur.inliers)),
	}, nil
}

// linearization is everything one pass over the observations yields at a
// pose: the Huber cost, the inlier statistics and the damped solve's normal
// equations h*delta = b.
type linearization struct {
	cost    float64
	inliers int
	sumSq   float64 // squared residuals of the inliers, px²
	h       [36]float64
	b       [6]float64
}

// linearize makes the single pass over obs at pose. A point at or behind
// the image plane (pc.Z <= 1e-9) costs a fixed outlier penalty and is never
// an inlier; one within 1e-6 of it still costs and counts but is left out of
// the normal equations.
//
// The Jacobian of the pixel with respect to a left-multiplied se(3)
// increment is d(u,v)/d(pc) * [I | -pc^], with du = (fx/z, 0, -fx*x/z²) and
// dv = (0, fy/z, -fy*y/z²); it is written out with its structural zeros
// dropped. Every dropped term is an exact ±0, and h and b start at +0 and
// can never become -0, so each entry holds the same bits as the full 6×6
// accumulation. Every product is rounded explicitly so that no architecture
// fuses it into a multiply-add.
func linearize(cam geom.Camera, obs []Observation, pose geom.Pose) linearization {
	var l linearization
	r, t := &pose.R, pose.T
	h := &l.h
	for i := range obs {
		p, pix := obs[i].Point, obs[i].Pixel
		pc := geom.Vec3{
			X: float64(r[0]*p.X) + float64(r[1]*p.Y) + float64(r[2]*p.Z) + t.X,
			Y: float64(r[3]*p.X) + float64(r[4]*p.Y) + float64(r[5]*p.Z) + t.Y,
			Z: float64(r[6]*p.X) + float64(r[7]*p.Y) + float64(r[8]*p.Z) + t.Z,
		}
		if pc.Z <= 1e-9 {
			l.cost += huberDelta * huberDelta * 4
			continue
		}
		rx := float64(cam.Fx*pc.X)/pc.Z + cam.Cx - pix.X
		ry := float64(cam.Fy*pc.Y)/pc.Z + cam.Cy - pix.Y
		r2 := float64(rx*rx) + float64(ry*ry)
		l.cost += huberLoss(r2)
		if r2 < huberDelta*huberDelta*4 {
			l.inliers++
			l.sumSq += r2
		}
		if pc.Z <= 1e-6 {
			continue
		}
		w := huberWeight(r2)

		invZ := 1 / pc.Z
		invZ2 := invZ * invZ
		u0 := cam.Fx * invZ
		u2 := -cam.Fx * pc.X * invZ2
		v1 := cam.Fy * invZ
		v2 := -cam.Fy * pc.Y * invZ2
		// Rotation block: -(d/dpc) * skew(pc).
		u3 := float64(u2 * pc.Y)
		u4 := float64(u0*pc.Z) - float64(u2*pc.X)
		u5 := -float64(u0 * pc.Y)
		v3 := float64(v2*pc.Y) - float64(v1*pc.Z)
		v4 := -float64(v2 * pc.X)
		v5 := float64(v1 * pc.X)

		h[0] += float64(w * float64(u0*u0))
		h[2] += float64(w * float64(u0*u2))
		h[3] += float64(w * float64(u0*u3))
		h[4] += float64(w * float64(u0*u4))
		h[5] += float64(w * float64(u0*u5))
		h[7] += float64(w * float64(v1*v1))
		h[8] += float64(w * float64(v1*v2))
		h[9] += float64(w * float64(v1*v3))
		h[10] += float64(w * float64(v1*v4))
		h[11] += float64(w * float64(v1*v5))
		h[14] += float64(w * (float64(u2*u2) + float64(v2*v2)))
		h[15] += float64(w * (float64(u2*u3) + float64(v2*v3)))
		h[16] += float64(w * (float64(u2*u4) + float64(v2*v4)))
		h[17] += float64(w * (float64(u2*u5) + float64(v2*v5)))
		h[21] += float64(w * (float64(u3*u3) + float64(v3*v3)))
		h[22] += float64(w * (float64(u3*u4) + float64(v3*v4)))
		h[23] += float64(w * (float64(u3*u5) + float64(v3*v5)))
		h[28] += float64(w * (float64(u4*u4) + float64(v4*v4)))
		h[29] += float64(w * (float64(u4*u5) + float64(v4*v5)))
		h[35] += float64(w * (float64(u5*u5) + float64(v5*v5)))
		l.b[0] -= float64(w * float64(u0*rx))
		l.b[1] -= float64(w * float64(v1*ry))
		l.b[2] -= float64(w * (float64(u2*rx) + float64(v2*ry)))
		l.b[3] -= float64(w * (float64(u3*rx) + float64(v3*ry)))
		l.b[4] -= float64(w * (float64(u4*rx) + float64(v4*ry)))
		l.b[5] -= float64(w * (float64(u5*rx) + float64(v5*ry)))
	}
	linalg.MirrorUpper(h[:], 6)
	return l
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
