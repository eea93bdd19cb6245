package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSingularValuesIdentity(t *testing.T) {
	// 3x3 identity: all singular values are 1
	a := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	sv := SingularValues(a, 3, 3)
	if len(sv) != 3 {
		t.Fatalf("got %d singular values, want 3", len(sv))
	}
	for i, s := range sv {
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("sv[%d] = %v, want 1", i, s)
		}
	}
}

func TestSingularValuesDiagonal(t *testing.T) {
	a := []float64{3, 0, 0, 0, 2, 0, 0, 0, 1}
	sv := SingularValues(a, 3, 3)
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-9 {
			t.Errorf("sv[%d] = %v, want %v", i, sv[i], want[i])
		}
	}
}

func TestSingularValuesKnownMatrix(t *testing.T) {
	// A = [[1, 0], [0, 1], [1, 1]]; AᵀA = [[2,1],[1,2]], eigenvalues 3 and 1
	a := []float64{1, 0, 0, 1, 1, 1}
	sv := SingularValues(a, 3, 2)
	if len(sv) != 2 {
		t.Fatalf("got %d singular values, want 2", len(sv))
	}
	if math.Abs(sv[0]-math.Sqrt(3)) > 1e-9 || math.Abs(sv[1]-1) > 1e-9 {
		t.Errorf("sv = %v, want [sqrt(3), 1]", sv)
	}
}

func TestSingularValuesFrobenius(t *testing.T) {
	// sum of squared singular values equals squared Frobenius norm
	rng := rand.New(rand.NewSource(1))
	m, n := 17, 29
	a := make([]float64, m*n)
	var frob float64
	for i := range a {
		a[i] = rng.NormFloat64()
		frob += a[i] * a[i]
	}
	sv := SingularValues(a, m, n)
	if len(sv) != m {
		t.Fatalf("got %d singular values, want %d (min dim)", len(sv), m)
	}
	var sum float64
	for _, s := range sv {
		sum += s * s
	}
	if math.Abs(sum-frob)/frob > 1e-9 {
		t.Errorf("energy %v != Frobenius^2 %v", sum, frob)
	}
}

func TestSingularValuesWideVsTall(t *testing.T) {
	// transposing must not change the singular values
	rng := rand.New(rand.NewSource(2))
	m, n := 5, 11
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	at := make([]float64, n*m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			at[j*m+i] = a[i*n+j]
		}
	}
	sv := SingularValues(a, m, n)
	svt := SingularValues(at, n, m)
	for i := range sv {
		if math.Abs(sv[i]-svt[i]) > 1e-8 {
			t.Errorf("sv[%d]: %v vs %v", i, sv[i], svt[i])
		}
	}
}

func TestSingularValuesBadInput(t *testing.T) {
	if SingularValues([]float64(nil), 0, 0) != nil {
		t.Error("empty input should return nil")
	}
	if SingularValues([]float64{1, 2}, 2, 2) != nil {
		t.Error("mismatched size should return nil")
	}
}

func TestSVDTruncationLowRank(t *testing.T) {
	// rank-1 matrix: one singular value carries all the energy
	m, n := 16, 16
	a := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = float64(i+1) * float64(j+1)
		}
	}
	rank, frac := SVDTruncation(a, []int{m, n}, 0.99)
	if rank != 1 {
		t.Errorf("rank-1 matrix truncation rank = %d, want 1", rank)
	}
	if frac <= 0 || frac > 1 {
		t.Errorf("fraction = %v out of range", frac)
	}
}

func TestSVDTruncationFullRankNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 24, 24
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	rank, _ := SVDTruncation(a, []int{m, n}, 0.99)
	if rank < m/2 {
		t.Errorf("white noise should need high rank, got %d of %d", rank, m)
	}
}

func TestSVDTruncation1D(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = math.Sin(float64(i) / 10)
	}
	rank, frac := SVDTruncation(xs, []int{100}, 0.99)
	if rank <= 0 || frac <= 0 {
		t.Errorf("1-D fold failed: rank=%d frac=%v", rank, frac)
	}
}

func TestSVDTruncationDegenerate(t *testing.T) {
	rank, frac := SVDTruncation([]float64(nil), nil, 0.99)
	if rank != 0 || frac != 0 {
		t.Error("empty input should give zero truncation")
	}
	zero := make([]float64, 16)
	rank, frac = SVDTruncation(zero, []int{4, 4}, 0.99)
	if rank != 0 || frac != 0 {
		t.Error("all-zero input should give zero truncation")
	}
}

func BenchmarkSVDTruncation64x2048(b *testing.B) {
	// the Underwood 2023 feature at the default field unfolding
	rng := rand.New(rand.NewSource(4))
	dims := []int{64, 64, 32}
	xs := make([]float64, 64*64*32)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVDTruncation(xs, dims, 0.99)
	}
}

func BenchmarkVariogram(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{64, 64, 32}
	xs := make([]float64, 64*64*32)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Variogram(xs, dims, 4)
	}
}
