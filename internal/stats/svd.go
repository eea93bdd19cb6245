package stats

import (
	"math"
	"sort"
)

// SingularValues returns the singular values (descending) of the row-major
// m×n matrix a. It computes the eigenvalues of the smaller Gram matrix
// (A·Aᵀ or Aᵀ·A, whichever is smaller) with a cyclic Jacobi eigensolver,
// which is simple, robust, and adequate for the feature-extraction matrix
// sizes used here (the paper notes the SVD feature is expensive relative
// to other metrics even with optimized implementations — that relative
// cost is preserved).
func SingularValues[T Float](a []T, m, n int) []float64 {
	if m <= 0 || n <= 0 || len(a) != m*n {
		return nil
	}
	k := m
	gram := make([]float64, 0)
	if m <= n {
		// G = A·Aᵀ (m×m)
		gram = make([]float64, m*m)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				var s float64
				ri, rj := a[i*n:(i+1)*n], a[j*n:(j+1)*n]
				for t := 0; t < n; t++ {
					s += float64(ri[t]) * float64(rj[t])
				}
				gram[i*m+j] = s
				gram[j*m+i] = s
			}
		}
	} else {
		// G = Aᵀ·A (n×n)
		k = n
		gram = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var s float64
				for t := 0; t < m; t++ {
					s += float64(a[t*n+i]) * float64(a[t*n+j])
				}
				gram[i*n+j] = s
				gram[j*n+i] = s
			}
		}
	}
	eig := jacobiEigenvalues(gram, k)
	out := make([]float64, len(eig))
	for i, v := range eig {
		if v < 0 {
			v = 0 // numerical noise
		}
		out[i] = math.Sqrt(v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// jacobiEigenvalues computes the eigenvalues of the symmetric k×k matrix g
// (row-major, destroyed) via cyclic Jacobi rotations.
func jacobiEigenvalues(g []float64, k int) []float64 {
	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				off += g[i*k+j] * g[i*k+j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				apq := g[p*k+q]
				if apq == 0 {
					continue
				}
				app := g[p*k+p]
				aqq := g[q*k+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// apply rotation to rows/cols p and q
				for i := 0; i < k; i++ {
					gip := g[i*k+p]
					giq := g[i*k+q]
					g[i*k+p] = c*gip - s*giq
					g[i*k+q] = s*gip + c*giq
				}
				for i := 0; i < k; i++ {
					gpi := g[p*k+i]
					gqi := g[q*k+i]
					g[p*k+i] = c*gpi - s*gqi
					g[q*k+i] = s*gpi + c*gqi
				}
			}
		}
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = g[i*k+i]
	}
	return out
}

// SVDTruncation returns the smallest rank r such that the top-r singular
// values carry at least fraction tau of the total squared energy, together
// with the fraction r/min(m,n) — the SVD-truncation feature of Underwood
// 2023. Fields with little global spatial structure need high rank.
func SVDTruncation[T Float](xs []T, dims []int, tau float64) (rank int, fraction float64) {
	m, n := unfold(dims)
	if m == 0 || n == 0 {
		return 0, 0
	}
	var sv []float64
	if m >= n {
		sv = SingularValuesOneSided(xs, m, n)
	} else {
		sv = SingularValues(xs, m, n)
	}
	var total float64
	for _, s := range sv {
		total += s * s
	}
	if total == 0 {
		return 0, 0
	}
	var acc float64
	for i, s := range sv {
		acc += s * s
		if acc >= tau*total {
			rank = i + 1
			break
		}
	}
	if rank == 0 {
		rank = len(sv)
	}
	return rank, float64(rank) / float64(len(sv))
}

// unfold maps an n-dimensional shape to a 2-D matricization: the first
// dimension becomes rows and the remaining dimensions are flattened into
// columns (mode-1 unfolding). 1-D data is folded into a near-square matrix
// so the SVD still measures structure.
func unfold(dims []int) (m, n int) {
	switch len(dims) {
	case 0:
		return 0, 0
	case 1:
		total := dims[0]
		if total == 0 {
			return 0, 0
		}
		m = int(math.Sqrt(float64(total)))
		for m > 1 && total%m != 0 {
			m--
		}
		if m < 1 {
			m = 1
		}
		return m, total / m
	default:
		// group all leading dimensions into rows: the tall-skinny
		// matricization that keeps the expensive one-sided path applicable
		m = 1
		for _, d := range dims[:len(dims)-1] {
			m *= d
		}
		return m, dims[len(dims)-1]
	}
}

// SingularValuesOneSided computes singular values with one-sided Jacobi
// rotations applied directly to the columns of the row-major m×n matrix
// (m ≥ n is fastest; the matrix is copied). Unlike SingularValues it
// never forms a Gram matrix, which is the numerically robust but
// expensive formulation — the cost profile the paper attributes to the
// Underwood 2023 SVD feature (§6: the SVD dominates that scheme's
// runtime even with optimized implementations).
func SingularValuesOneSided[T Float](a []T, m, n int) []float64 {
	if m <= 0 || n <= 0 || len(a) != m*n {
		return nil
	}
	// column-major copy for cache-friendly column rotations
	cols := make([][]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = float64(a[i*n+j])
		}
		cols[j] = col
	}
	const maxSweeps = 30
	const tol = 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp, cq := cols[p], cols[q]
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					app += cp[i] * cp[i]
					aqq += cq[i] * cq[i]
					apq += cp[i] * cq[i]
				}
				if math.Abs(apq) <= tol*math.Sqrt(app*aqq) {
					continue
				}
				rotated = true
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < m; i++ {
					vp := cp[i]
					vq := cq[i]
					cp[i] = c*vp - s*vq
					cq[i] = s*vp + c*vq
				}
			}
		}
		if !rotated {
			break
		}
	}
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += cols[j][i] * cols[j][i]
		}
		out[j] = math.Sqrt(norm)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}
