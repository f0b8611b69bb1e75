// Package linalg implements the small linear-algebra kernels the
// visual-odometry pipeline needs: Gram-matrix accumulation, a damped
// Cholesky solve of 6x6 Gauss-Newton normal equations, Jacobi
// eigendecomposition of symmetric matrices, the null vector built on it, and
// a 3x3 SVD. Matrices are tiny (at most 9x9, the Gram matrix of the 8-point
// algorithm) and live in caller-owned row-major arrays, with fixed-size
// scratch on the stack, so no kernel allocates.
//
// Every product that feeds a sum is rounded explicitly (float64(x*y) + z),
// so that no architecture fuses it into one multiply-add instruction and the
// kernels give the same bits on every architecture.
package linalg

import (
	"errors"
	"math"
)

// maxN is the largest matrix order SymEigen and NullVector accept.
const maxN = 9

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// AddGramRow accumulates row^T*row into the upper triangle of the n x n
// row-major matrix g, n = len(row). Feeding it the rows of A in order, then
// calling MirrorUpper, leaves g = A^T*A, the Gram matrix of the normal
// equations and of the null-space solver. Zero entries of row are skipped.
func AddGramRow(g, row []float64) {
	n := len(row)
	for i, ri := range row {
		if ri == 0 {
			continue
		}
		gi := g[i*n : (i+1)*n]
		for j := i; j < n; j++ {
			gi[j] += float64(ri * row[j])
		}
	}
}

// MirrorUpper copies the upper triangle of the n x n row-major matrix g into
// its lower triangle.
func MirrorUpper(g []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			g[i*n+j] = g[j*n+i]
		}
	}
}

// SolveCholesky solves a*x = b for a symmetric positive-definite 6x6 a
// (row-major), with Levenberg-style diagonal damping lambda added before
// factorization. It is the solver behind each Gauss-Newton step of the pose
// optimizer. a is not modified.
func SolveCholesky(a *[36]float64, b [6]float64, lambda float64) ([6]float64, error) {
	const n = 6
	l := *a
	for i := 0; i < n; i++ {
		l[i*n+i] += lambda
	}
	// In-place lower Cholesky.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= float64(l[i*n+k] * l[j*n+k])
			}
			if i == j {
				if s <= 1e-14 {
					return [6]float64{}, ErrSingular
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	// Forward then backward substitution.
	var y, x [n]float64
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(l[i*n+k] * y[k])
		}
		y[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l[k*n+i] * x[k])
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
}
