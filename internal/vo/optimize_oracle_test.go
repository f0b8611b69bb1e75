package vo

import (
	"math"
	"math/rand"
	"testing"

	"edgeis/internal/geom"
	"edgeis/internal/linalg"
)

// oraclePaths counts the solver paths one oracle run took, so that the
// differential test can show its corpus exercises each of them.
type oraclePaths struct {
	accepted, rejected, singular, degenerate int
}

// optimizePoseOracle is the two-pass solver that OptimizePose replaced: it
// rebuilds the normal equations at the current pose every iteration, costs
// each candidate in a second pass, and counts inliers in a final one. It is
// kept verbatim, apart from the path counters, as the bit-for-bit reference.
func optimizePoseOracle(cam geom.Camera, obs []Observation, init geom.Pose, iterations int, paths *oraclePaths) (OptimizeResult, error) {
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

			invZ := 1 / pc.Z
			invZ2 := invZ * invZ
			du := [3]float64{cam.Fx * invZ, 0, -cam.Fx * pc.X * invZ2}
			dv := [3]float64{0, cam.Fy * invZ, -cam.Fy * pc.Y * invZ2}
			var ju, jv [6]float64
			copy(ju[:3], du[:])
			copy(jv[:3], dv[:])
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
			paths.singular++
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
			paths.accepted++
			pose = cand
			prevCost = c
			lambda = math.Max(lambda*0.5, 1e-6)
			if normSq(delta) < 1e-16 {
				break
			}
		} else {
			paths.rejected++
			lambda *= 10
			if lambda > 1e3 {
				break
			}
		}
	}

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
		paths.degenerate++
		return OptimizeResult{}, ErrDegenerate
	}
	return OptimizeResult{
		Pose:    pose,
		Inliers: inliers,
		RMSE:    math.Sqrt(sumSq / float64(inliers)),
	}, nil
}

// oracleCase is one input set of the differential test.
type oracleCase struct {
	name string
	cam  geom.Camera
	obs  []Observation
	init geom.Pose
}

// oracleCorpus builds the differential test's input sets: noisy scenes
// with Huber outliers from near and far initial poses, grid scenes under
// an axis-aligned pose whose camera-frame coordinates are exact signed
// zeros, points at and just past both depth gates, short sets, and
// rank-deficient sets close to the camera whose factorization fails.
func oracleCorpus(rng *rand.Rand) []oracleCase {
	cam := geom.StandardCamera(640, 480)
	var cases []oracleCase
	add := func(name string, obs []Observation, init geom.Pose) {
		cases = append(cases, oracleCase{name: name, cam: cam, obs: obs, init: init})
	}
	perturb := func(p geom.Pose, rot, trans float64) geom.Pose {
		return geom.Pose{
			R: geom.RotY(rng.NormFloat64() * rot).Mul(geom.RotX(rng.NormFloat64() * rot)).Mul(p.R),
			T: p.T.Add(geom.V3(rng.NormFloat64()*trans, rng.NormFloat64()*trans, rng.NormFloat64()*trans)),
		}
	}

	for i := 0; i < 40; i++ {
		truth := geom.Pose{
			R: geom.RotY(rng.NormFloat64() * 0.2).Mul(geom.RotX(rng.NormFloat64() * 0.1)),
			T: geom.V3(rng.NormFloat64(), rng.NormFloat64()*0.5, 6+rng.Float64()*4),
		}
		obs := synthObservations(rng, 3+rng.Intn(80), truth, cam, rng.Float64())
		// Outliers far beyond the Huber width, some beyond the inlier gate.
		for k := rng.Intn(len(obs)/3 + 1); k > 0; k-- {
			o := &obs[rng.Intn(len(obs))]
			o.Pixel = o.Pixel.Add(geom.V2(rng.NormFloat64()*40, rng.NormFloat64()*40))
		}
		add("noisy/near", obs, perturb(truth, 0.02, 0.1))
		add("noisy/far", obs, perturb(truth, 0.6, 3))
		add("noisy/exact", obs, truth)
	}

	// Axis-aligned poses over integer grids: many camera-frame coordinates
	// and Jacobian entries are exactly ±0, in both signs.
	for i := 0; i < 20; i++ {
		init := geom.Pose{R: geom.Identity3(), T: geom.V3(math.Copysign(0, -1), 0, 6)}
		if i%2 == 1 {
			init.R = geom.RotY(math.Pi / 2)
			init.T = geom.V3(0, math.Copysign(0, -1), 6)
		}
		var obs []Observation
		for k := 3 + rng.Intn(30); k > 0; k-- {
			p := geom.V3(float64(rng.Intn(5)-2), float64(rng.Intn(5)-2), float64(rng.Intn(5)-2))
			if rng.Intn(3) == 0 {
				p.X = math.Copysign(0, -1)
			}
			if rng.Intn(3) == 0 {
				p.Y = math.Copysign(0, -1)
			}
			px := geom.V2(float64(rng.Intn(640)), float64(rng.Intn(480)))
			if rng.Intn(2) == 0 {
				if q, err := cam.ProjectWorld(init, p); err == nil {
					px = q
				}
			}
			obs = append(obs, Observation{Point: p, Pixel: px})
		}
		add("grid", obs, init)
	}

	// Depth gates: from an initial pose at or near the identity, a point's
	// camera depth is about its Z, so these sit at or behind the image
	// plane, between the two gates, and just past the second one.
	for i := 0; i < 20; i++ {
		obs := synthObservations(rng, 6+rng.Intn(20), geom.IdentityPose(), cam, 0.5)
		init := geom.IdentityPose()
		if i%2 == 1 {
			init.R = geom.RotY(rng.NormFloat64() * 0.01).Mul(geom.RotX(rng.NormFloat64() * 0.01))
		}
		for _, z := range []float64{0, -1, 1e-9, 5e-10, 1e-8, 5e-7, 1e-6, 2e-6, 1e-4} {
			if rng.Intn(2) == 0 {
				obs = append(obs, Observation{
					Point: geom.V3(rng.NormFloat64()*z, rng.NormFloat64()*z, z),
					Pixel: geom.V2(rng.Float64()*640, rng.Float64()*480),
				})
			}
		}
		rng.Shuffle(len(obs), func(a, b int) { obs[a], obs[b] = obs[b], obs[a] })
		add("depth-gates", obs, init)
	}

	// Too few observations, and sets with too few inliers.
	for n := 0; n < minObservationsForPose; n++ {
		add("short", synthObservations(rng, n, gtPose(), cam, 0), gtPose())
	}
	for i := 0; i < 5; i++ {
		obs := synthObservations(rng, 5, gtPose(), cam, 0)
		for k := range obs {
			obs[k].Pixel = obs[k].Pixel.Add(geom.V2(60, -45))
		}
		add("all-outliers", obs, gtPose())
	}

	// One point repeated just in front of the camera: the normal equations
	// have rank two and entries near 1e15, so the damped factorization
	// fails until lambda has grown.
	for i := 0; i < 10; i++ {
		z := math.Pow(10, -5+rng.Float64()*2)
		p := geom.V3(rng.NormFloat64()*z, rng.NormFloat64()*z, z)
		obs := make([]Observation, 3+rng.Intn(6))
		for k := range obs {
			obs[k] = Observation{Point: p, Pixel: geom.V2(320+rng.NormFloat64(), 240+rng.NormFloat64())}
		}
		add("near-singular", obs, geom.IdentityPose())
	}
	return cases
}

// TestOptimizePoseMatchesOracle runs the one-pass solver and the two-pass
// oracle on every corpus set at several iteration caps, and requires the
// same pose, inlier count, RMSE and error, bit for bit.
func TestOptimizePoseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var paths oraclePaths
	compared := 0
	corpus := oracleCorpus(rng)
	census := depthCensus(corpus)
	if census.behind == 0 || census.betweenGates == 0 || census.negZero == 0 || census.posZero == 0 {
		t.Fatalf("corpus misses a depth gate or a signed zero at the initial poses: %+v", census)
	}
	for ci, c := range corpus {
		for _, iters := range []int{0, 1, 5, 8, 10, 15} {
			want, wantErr := optimizePoseOracle(c.cam, c.obs, c.init, iters, &paths)
			got, gotErr := OptimizePose(c.cam, c.obs, c.init, iters)
			if gotErr != wantErr {
				t.Fatalf("case %d (%s), %d iterations: error %v, oracle %v", ci, c.name, iters, gotErr, wantErr)
			}
			if d := resultBitsDiff(got, want); d != "" {
				t.Fatalf("case %d (%s), %d iterations: %s", ci, c.name, iters, d)
			}
			compared++
		}
	}
	t.Logf("%d runs: %d accepted steps, %d rejected, %d failed factorizations, %d degenerate results; initial poses: %+v",
		compared, paths.accepted, paths.rejected, paths.singular, paths.degenerate, census)
	if paths.accepted == 0 || paths.rejected == 0 || paths.singular == 0 || paths.degenerate == 0 {
		t.Errorf("corpus misses a solver path: %+v", paths)
	}
}

// resultBitsDiff names the first field in which two results differ in any
// bit, or returns "".
func resultBitsDiff(got, want OptimizeResult) string {
	switch {
	case poseBits(got.Pose) != poseBits(want.Pose):
		return "pose differs"
	case got.Inliers != want.Inliers:
		return "inlier count differs"
	case math.Float64bits(got.RMSE) != math.Float64bits(want.RMSE):
		return "RMSE differs"
	}
	return ""
}

// poseBits returns the bits of a pose's rotation then translation.
func poseBits(p geom.Pose) [12]uint64 {
	var b [12]uint64
	for i, v := range p.R {
		b[i] = math.Float64bits(v)
	}
	b[9], b[10], b[11] = math.Float64bits(p.T.X), math.Float64bits(p.T.Y), math.Float64bits(p.T.Z)
	return b
}

// depthCounts holds depthCensus's counts.
type depthCounts struct{ behind, betweenGates, negZero, posZero int }

// depthCensus counts, at each set's initial pose, the points at or behind
// the image plane, those between the two depth gates, and the camera-frame
// x or y coordinates that are exactly -0 or +0.
func depthCensus(cases []oracleCase) depthCounts {
	var d depthCounts
	for _, c := range cases {
		for _, o := range c.obs {
			pc := c.init.Apply(o.Point)
			switch {
			case pc.Z <= 1e-9:
				d.behind++
			case pc.Z <= 1e-6:
				d.betweenGates++
			}
			for _, v := range []float64{pc.X, pc.Y} {
				if v == 0 && math.Signbit(v) {
					d.negZero++
				} else if v == 0 {
					d.posZero++
				}
			}
		}
	}
	return d
}
