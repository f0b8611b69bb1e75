package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// gram returns A^T*A for the row-major rows x n matrix a, accumulated the
// way every caller builds its normal equations.
func gram(a []float64, n int) []float64 {
	g := make([]float64, n*n)
	for r := 0; r+n <= len(a); r += n {
		AddGramRow(g, a[r:r+n])
	}
	MirrorUpper(g, n)
	return g
}

// mulVec returns the product of the row-major matrix a (len(x) columns) and x.
func mulVec(a, x []float64) []float64 {
	n := len(x)
	out := make([]float64, len(a)/n)
	for r := range out {
		for c, v := range x {
			out[r] += a[r*n+c] * v
		}
	}
	return out
}

func TestSolveCholeskySPD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		// Build SPD matrix as J^T J + small diagonal.
		j := make([]float64, 8*6)
		for i := range j {
			j[i] = rng.NormFloat64()
		}
		var a [36]float64
		copy(a[:], gram(j, 6))
		for i := 0; i < 6; i++ {
			a[i*6+i] += 0.1
		}
		xTrue := make([]float64, 6)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		x, err := SolveCholesky(&a, [6]float64(mulVec(a[:], xTrue)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

// embed returns the 6x6 identity with its top-left 2x2 block replaced.
func embed(a00, a01, a10, a11 float64) *[36]float64 {
	var a [36]float64
	for i := 0; i < 6; i++ {
		a[i*6+i] = 1
	}
	a[0], a[1], a[6], a[7] = a00, a01, a10, a11
	return &a
}

func TestSolveCholeskyRejectsIndefinite(t *testing.T) {
	a := embed(1, 0, 0, -1)
	if _, err := SolveCholesky(a, [6]float64{1, 1}, 0); err == nil {
		t.Error("expected failure on indefinite matrix")
	}
}

func TestSolveCholeskyDamping(t *testing.T) {
	// Singular matrix becomes solvable with damping.
	a := embed(1, 1, 1, 1)
	if _, err := SolveCholesky(a, [6]float64{1, 1}, 0); err == nil {
		t.Error("expected failure without damping")
	}
	before := *a
	if _, err := SolveCholesky(a, [6]float64{1, 1}, 0.5); err != nil {
		t.Errorf("expected success with damping: %v", err)
	}
	if *a != before {
		t.Error("SolveCholesky modified its input")
	}
}

func TestAddGramRow(t *testing.T) {
	g := gram([]float64{
		1, 2,
		3, 4,
		5, 6,
	}, 2)
	want := []float64{35, 44, 44, 56}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("g[%d] = %v, want %v", i, g[i], want[i])
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := []float64{
		3, 0, 0,
		0, 1, 0,
		0, 0, 2,
	}
	vals := make([]float64, 3)
	SymEigen(a, vals, make([]float64, 9))
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-9 {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

// TestSymEigenTiesKeepDiagonalOrder pins the stable eigenpair sort: equal
// eigenvalues keep the order of their diagonal entries, as sort.Slice's
// insertion sort kept them at these sizes.
func TestSymEigenTiesKeepDiagonalOrder(t *testing.T) {
	a := []float64{
		1, 0, 0,
		0, 2, 0,
		0, 0, 2,
	}
	vals, vecs := make([]float64, 3), make([]float64, 9)
	SymEigen(a, vals, vecs)
	want := []float64{
		0, 0, 1,
		1, 0, 0,
		0, 1, 0,
	}
	for i := range want {
		if vecs[i] != want[i] {
			t.Fatalf("eigenvectors %v, want %v (columns e1, e2, e0)", vecs, want)
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		j := make([]float64, n*n)
		for i := range j {
			j[i] = rng.NormFloat64()
		}
		a := gram(j, n) // symmetric
		vals, vecs := make([]float64, n), make([]float64, n*n)
		SymEigen(a, vals, vecs)
		// Check A*v_i = lambda_i * v_i for each eigenpair.
		for i := 0; i < n; i++ {
			v := make([]float64, n)
			for r := 0; r < n; r++ {
				v[r] = vecs[r*n+i]
			}
			av := mulVec(a, v)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-vals[i]*v[r]) > 1e-6*math.Max(1, math.Abs(vals[i])) {
					t.Fatalf("trial %d: eigenpair %d violated at row %d", trial, i, r)
				}
			}
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				t.Fatal("eigenvalues not sorted")
			}
		}
	}
}

func TestNullVector(t *testing.T) {
	// Rows are orthogonal to (1, -2, 1)/sqrt(6).
	a := []float64{
		1, 1, 1,
		2, 1, 0,
		3, 2, 1,
		4, 3, 2,
	}
	x := make([]float64, 3)
	NullVector(gram(a, 3), x)
	for i, r := range mulVec(a, x) {
		if math.Abs(r) > 1e-8 {
			t.Errorf("residual[%d] = %v", i, r)
		}
	}
	norm := 0.0
	for _, v := range x {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("null vector norm^2 = %v, want 1", norm)
	}
}

func TestSVD3Reconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		var a [9]float64
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		u, s, v := SVD3(a)
		// Reconstruct A = U diag(s) V^T.
		var rec [9]float64
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				sum := 0.0
				for k := 0; k < 3; k++ {
					sum += u[r*3+k] * s[k] * v[c*3+k]
				}
				rec[r*3+c] = sum
			}
		}
		for i := range a {
			if math.Abs(rec[i]-a[i]) > 1e-7 {
				t.Fatalf("trial %d: reconstruction error at %d: %v vs %v", trial, i, rec[i], a[i])
			}
		}
		// Singular values descending and non-negative.
		if s[0] < s[1]-1e-12 || s[1] < s[2]-1e-12 || s[2] < -1e-12 {
			t.Fatalf("trial %d: singular values not sorted: %v", trial, s)
		}
	}
}

func TestSVD3RankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := [9]float64{
		1, 2, 3,
		2, 4, 6,
		3, 6, 9,
	}
	u, s, v := SVD3(a)
	// Singular values of a rank-1 matrix: tolerance is sqrt of the eigen
	// tolerance since s = sqrt(eig(A^T A)).
	if s[1] > 1e-6 || s[2] > 1e-6 {
		t.Errorf("expected rank 1, got singular values %v", s)
	}
	// U and V columns should still be orthonormal.
	for _, m := range [][9]float64{u, v} {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				dot := m[i]*m[j] + m[3+i]*m[3+j] + m[6+i]*m[6+j]
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-6 {
					t.Fatalf("columns %d,%d dot = %v, want %v", i, j, dot, want)
				}
			}
		}
	}
}

func TestKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	a := [9]float64{2, 1, 0, 1, 3, 1, 0, 1, 4}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		_, s, _ := SVD3(a)
		sink += s[0]
	}); n != 0 {
		t.Errorf("SVD3 allocates %v times per call, want 0", n)
	}
	g := gram([]float64{1, 1, 1, 2, 1, 0, 3, 2, 1, 4, 3, 2}, 3)
	x := make([]float64, 3)
	if n := testing.AllocsPerRun(100, func() { NullVector(g, x) }); n != 0 {
		t.Errorf("NullVector allocates %v times per call, want 0", n)
	}
	spd := embed(4, 1, 1, 3)
	if n := testing.AllocsPerRun(100, func() {
		x, _ := SolveCholesky(spd, [6]float64{1, 2, 3, 4, 5, 6}, 1e-4)
		sink += x[0]
	}); n != 0 {
		t.Errorf("SolveCholesky allocates %v times per call, want 0", n)
	}
	_ = sink
}
