// Package linalg implements the small dense linear-algebra routines the
// visual-odometry pipeline needs: Gaussian elimination, Cholesky
// factorization, Jacobi eigendecomposition of symmetric matrices and an SVD
// built on it. Matrices here are tiny (up to ~9x9: two-view geometry and 6x6
// Gauss-Newton normal equations), so simplicity and numerical robustness are
// preferred over asymptotic speed.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("linalg: singular matrix")

// Dense is a dense row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zero matrix with the given shape.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty rows")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Dense) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Dense) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Add accumulates v into the element at row r, column c.
func (m *Dense) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes m * x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
	return out
}

// TransposeMul computes m^T * m, the Gram matrix used by normal equations
// and by the null-space solver.
func (m *Dense) TransposeMul() *Dense {
	out := NewDense(m.Cols, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for i := 0; i < m.Cols; i++ {
			if row[i] == 0 {
				continue
			}
			for j := i; j < m.Cols; j++ {
				out.Data[i*m.Cols+j] += row[i] * row[j]
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < m.Cols; i++ {
		for j := 0; j < i; j++ {
			out.Data[i*m.Cols+j] = out.Data[j*m.Cols+i]
		}
	}
	return out
}

// SolveCholesky solves a*x = b for a symmetric positive-definite a, with
// Levenberg-style diagonal damping lambda added before factorization. It is
// the solver behind each Gauss-Newton step of the pose optimizer.
func SolveCholesky(a *Dense, b []float64, lambda float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: non-square system %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := a.Clone()
	for i := 0; i < n; i++ {
		l.Add(i, i, lambda)
	}
	// In-place lower Cholesky.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := l.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 1e-14 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	// Forward then backward substitution.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}
