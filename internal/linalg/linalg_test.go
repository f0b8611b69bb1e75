package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveCholeskySPD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		// Build SPD matrix as J^T J + small diagonal.
		j := NewDense(n+2, n)
		for i := range j.Data {
			j.Data[i] = rng.NormFloat64()
		}
		a := j.TransposeMul()
		for i := 0; i < n; i++ {
			a.Add(i, i, 0.1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		x, err := SolveCholesky(a, b, 0)
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

func TestSolveCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{
		{1, 0},
		{0, -1},
	})
	if _, err := SolveCholesky(a, []float64{1, 1}, 0); err == nil {
		t.Error("expected failure on indefinite matrix")
	}
}

func TestSolveCholeskyDamping(t *testing.T) {
	// Singular matrix becomes solvable with damping.
	a := FromRows([][]float64{
		{1, 1},
		{1, 1},
	})
	if _, err := SolveCholesky(a, []float64{1, 1}, 0); err == nil {
		t.Error("expected failure without damping")
	}
	if _, err := SolveCholesky(a, []float64{1, 1}, 0.5); err != nil {
		t.Errorf("expected success with damping: %v", err)
	}
}

func TestTransposeMul(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{3, 4},
		{5, 6},
	})
	g := a.TransposeMul()
	want := [][]float64{{35, 44}, {44, 56}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(g.At(i, j)-want[i][j]) > 1e-12 {
				t.Errorf("g[%d][%d] = %v, want %v", i, j, g.At(i, j), want[i][j])
			}
		}
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{
		{3, 0, 0},
		{0, 1, 0},
		{0, 0, 2},
	})
	vals, _ := SymEigen(a)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-9 {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		j := NewDense(n, n)
		for i := range j.Data {
			j.Data[i] = rng.NormFloat64()
		}
		a := j.TransposeMul() // symmetric
		vals, vecs := SymEigen(a)
		// Check A*v_i = lambda_i * v_i for each eigenpair.
		for i := 0; i < n; i++ {
			v := make([]float64, n)
			for r := 0; r < n; r++ {
				v[r] = vecs.At(r, i)
			}
			av := a.MulVec(v)
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
	a := FromRows([][]float64{
		{1, 1, 1},
		{2, 1, 0},
		{3, 2, 1},
		{4, 3, 2},
	})
	x := NullVector(a)
	res := a.MulVec(x)
	for i, r := range res {
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

func TestFromRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}
