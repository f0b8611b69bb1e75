package linalg

import "math"

// SymEigen computes the eigendecomposition of the symmetric n x n row-major
// matrix a, n = len(vals) <= maxN, using the cyclic Jacobi method. It writes
// the eigenvalues into vals in descending order and the matching
// eigenvectors as the columns of the n x n row-major vecs. a is not
// modified.
//
// Jacobi is quadratic-per-sweep but unconditionally stable, which is exactly
// right for the tiny (<=9x9) Gram matrices of two-view geometry.
func SymEigen(a, vals, vecs []float64) {
	n := len(vals)
	var mbuf, vbuf [maxN * maxN]float64
	m, v := mbuf[:n*n], vbuf[:n*n]
	copy(m, a[:n*n])
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(m[i*n+j] * m[i*n+j])
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				rotate(m, v, n, p, q, c, s)
			}
		}
	}

	// Sort eigenpairs by descending eigenvalue with a stable insertion sort:
	// equal eigenvalues keep their diagonal order.
	var diag [maxN]float64
	var idx [maxN]int
	for i := 0; i < n; i++ {
		diag[i] = m[i*n+i]
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && diag[idx[j]] > diag[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for newCol, oldCol := range idx[:n] {
		vals[newCol] = diag[oldCol]
		for r := 0; r < n; r++ {
			vecs[r*n+newCol] = v[r*n+oldCol]
		}
	}
}

// rotate applies the Jacobi rotation J(p,q,theta) to the n x n m (two-sided)
// and accumulates it into v (one-sided).
func rotate(m, v []float64, n, p, q int, c, s float64) {
	for k := 0; k < n; k++ {
		mkp, mkq := m[k*n+p], m[k*n+q]
		m[k*n+p] = float64(c*mkp) - float64(s*mkq)
		m[k*n+q] = float64(s*mkp) + float64(c*mkq)
	}
	for k := 0; k < n; k++ {
		mpk, mqk := m[p*n+k], m[q*n+k]
		m[p*n+k] = float64(c*mpk) - float64(s*mqk)
		m[q*n+k] = float64(s*mpk) + float64(c*mqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v[k*n+p], v[k*n+q]
		v[k*n+p] = float64(c*vkp) - float64(s*vkq)
		v[k*n+q] = float64(s*vkp) + float64(c*vkq)
	}
}

// NullVector writes into x the unit vector minimizing ||A x|| given the
// symmetric Gram matrix gram = A^T*A of order n = len(x) <= maxN: the
// smallest right singular vector of A, computed as the smallest eigenvector
// of A^T A. It is the solver used for the 8-point fundamental-matrix
// estimate (Eq. 1) and linear triangulation (Eq. 3).
func NullVector(gram, x []float64) {
	n := len(x)
	var vals [maxN]float64
	var vecs [maxN * maxN]float64
	SymEigen(gram, vals[:n], vecs[:n*n])
	for r := 0; r < n; r++ {
		x[r] = vecs[r*n+n-1] // column of the smallest eigenvalue
	}
}

// SVD3 computes the singular value decomposition A = U * diag(s) * V^T of a
// 3x3 matrix given in row-major order. Singular values are returned in
// descending order; U and V are proper (possibly improper — sign-consistent)
// orthogonal matrices in row-major order. It is used to decompose the
// essential matrix (Eq. 2) and to enforce rank-2 on fundamental estimates.
func SVD3(a [9]float64) (u [9]float64, s [3]float64, v [9]float64) {
	// Eigen of A^T A gives V and s^2.
	var gram [9]float64
	for r := 0; r < 3; r++ {
		AddGramRow(gram[:], a[3*r:3*r+3])
	}
	MirrorUpper(gram[:], 3)
	var vals [3]float64
	SymEigen(gram[:], vals[:], v[:])
	for i := 0; i < 3; i++ {
		s[i] = math.Sqrt(math.Max(0, vals[i]))
	}
	// U columns: A*v_i / s_i; fall back to completing an orthonormal basis
	// for vanishing singular values.
	var ucols [3][3]float64
	for i := 0; i < 3; i++ {
		var col [3]float64
		for r := 0; r < 3; r++ {
			sum := 0.0
			for c := 0; c < 3; c++ {
				sum += float64(a[3*r+c] * v[3*c+i])
			}
			col[r] = sum
		}
		norm := math.Sqrt(dot3(col, col))
		if s[i] > 1e-12 && norm > 1e-12 {
			ucols[i] = [3]float64{col[0] / norm, col[1] / norm, col[2] / norm}
		}
	}
	completeBasis(&ucols)
	for i := 0; i < 3; i++ {
		for r := 0; r < 3; r++ {
			u[r*3+i] = ucols[i][r]
		}
	}
	return u, s, v
}

// dot3 is the dot product of two 3-vectors.
func dot3(a, b [3]float64) float64 {
	return float64(a[0]*b[0]) + float64(a[1]*b[1]) + float64(a[2]*b[2])
}

// completeBasis fills in any unset columns (those with vanishing singular
// values) so that the three columns form an orthonormal basis. Candidate
// directions are Gram-Schmidt orthogonalized against every column already
// set, so the routine works for any rank deficiency (0, 1 or 2 set columns).
func completeBasis(cols *[3][3]float64) {
	norm := func(v [3]float64) float64 { return math.Sqrt(dot3(v, v)) }
	for i := 0; i < 3; i++ {
		if norm(cols[i]) > 0.5 {
			continue
		}
		for _, cand := range [...][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
			// Orthogonalize against all set columns.
			for j := 0; j < 3; j++ {
				if j == i || norm(cols[j]) < 0.5 {
					continue
				}
				dot := dot3(cand, cols[j])
				for k := 0; k < 3; k++ {
					cand[k] -= float64(dot * cols[j][k])
				}
			}
			if n := norm(cand); n > 1e-6 {
				cols[i] = [3]float64{cand[0] / n, cand[1] / n, cand[2] / n}
				break
			}
		}
	}
}
