package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pressio"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	almost(t, "Mean", Mean(xs), 2.5, 1e-12)
	almost(t, "Variance", Variance(xs), 1.25, 1e-12)
	almost(t, "Std", Std(xs), math.Sqrt(1.25), 1e-12)
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestMedian(t *testing.T) {
	almost(t, "odd", Median([]float64{3, 1, 2}), 2, 0)
	almost(t, "even", Median([]float64{4, 1, 3, 2}), 2.5, 0)
	if Median(nil) != 0 {
		t.Error("empty median should be 0")
	}
	// input must not be reordered
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median mutated its input")
	}
}

func TestMedAPE(t *testing.T) {
	pred := []float64{110, 90, 100}
	act := []float64{100, 100, 100}
	almost(t, "MedAPE", MedAPE(pred, act), 10, 1e-12)
	// zero actuals are skipped
	almost(t, "MedAPE with zero", MedAPE([]float64{5, 110}, []float64{0, 100}), 10, 1e-12)
	if MedAPE([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Error("perfect prediction should be 0%")
	}
}

func TestSparsity(t *testing.T) {
	xs := []float64{0, 0, 1e-9, 5, -3}
	almost(t, "Sparsity", Sparsity(xs, 1e-6), 0.6, 1e-12)
	if Sparsity(nil, 1) != 0 {
		t.Error("empty sparsity should be 0")
	}
}

func TestHistogramAndEntropy(t *testing.T) {
	xs := []float64{0, 0.1, 0.9, 1.0, 0.5, -5, 10}
	h := Histogram(xs, 0, 1, 4)
	var total uint64
	for _, c := range h {
		total += c
	}
	if total != uint64(len(xs)) {
		t.Errorf("histogram loses mass: %d != %d", total, len(xs))
	}
	// uniform 2-bin distribution has entropy 1
	almost(t, "entropy", EntropyFromCounts([]uint64{5, 5}), 1, 1e-12)
	if EntropyFromCounts([]uint64{10, 0}) != 0 {
		t.Error("deterministic distribution should have zero entropy")
	}
	if EntropyFromCounts(nil) != 0 {
		t.Error("empty counts should have zero entropy")
	}
	// degenerate range: everything lands in bin 0
	h = Histogram(xs, 3, 3, 4)
	if h[0] != uint64(len(xs)) {
		t.Error("degenerate range should clamp to bin 0")
	}
}

func TestQuantizedEntropyMonotoneInBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	loose := QuantizedEntropy(xs, 0.5)
	tight := QuantizedEntropy(xs, 1e-4)
	if loose >= tight {
		t.Errorf("looser bound should reduce quantized entropy: loose=%v tight=%v", loose, tight)
	}
	if QuantizedEntropy(xs, 0) < tight {
		t.Error("exact entropy should be at least any quantized entropy")
	}
}

func TestVariogramSmoothVsNoise(t *testing.T) {
	n := 64
	smooth := make([]float64, n*n)
	noise := make([]float64, n*n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			smooth[i*n+j] = math.Sin(float64(i)/8) + math.Cos(float64(j)/8)
			noise[i*n+j] = rng.NormFloat64()
		}
	}
	gs := Variogram(smooth, []int{n, n}, 3)
	gn := Variogram(noise, []int{n, n}, 3)
	if gs[0] >= gn[0] {
		t.Errorf("smooth field should have smaller gamma(1): %v vs %v", gs[0], gn[0])
	}
	// variogram grows with lag for smooth fields
	if !(gs[0] < gs[1] && gs[1] < gs[2]) {
		t.Errorf("smooth variogram should increase with lag: %v", gs)
	}
}

func TestVariogramConstantField(t *testing.T) {
	xs := make([]float64, 100)
	g := Variogram(xs, []int{10, 10}, 2)
	if g[0] != 0 || g[1] != 0 {
		t.Errorf("constant field variogram = %v, want zeros", g)
	}
}

func TestSpatialCorrelation(t *testing.T) {
	n := 128
	smooth := make([]float64, n)
	for i := range smooth {
		smooth[i] = float64(i)
	}
	c := SpatialOf(pressio.FromFloat64(smooth, n)).Correlation
	if c < 0.99 {
		t.Errorf("linear ramp correlation = %v, want ~1", c)
	}
	rng := rand.New(rand.NewSource(3))
	noise := make([]float64, 4096)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	cn := SpatialOf(pressio.FromFloat64(noise, 4096)).Correlation
	if math.Abs(cn) > 0.1 {
		t.Errorf("white noise correlation = %v, want ~0", cn)
	}
	// constant field counts as perfectly correlated
	if SpatialOf(pressio.FromFloat64(make([]float64, 64), 64)).Correlation != 1 {
		t.Error("constant field should be perfectly correlated")
	}
}

func TestSpatialSmoothnessBounds(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		s := SpatialOf(pressio.FromFloat64(vals, len(vals))).Smoothness
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpatialDiversity(t *testing.T) {
	// homogeneous noise: low diversity; half-zero half-noise: high
	rng := rand.New(rand.NewSource(4))
	homo := make([]float64, 4096)
	mixed := make([]float64, 4096)
	for i := range homo {
		homo[i] = rng.NormFloat64()
		if i >= len(mixed)/2 {
			mixed[i] = rng.NormFloat64()
		}
	}
	dh := SpatialOf(pressio.FromFloat64(homo, 4096)).Diversity
	dm := SpatialOf(pressio.FromFloat64(mixed, 4096)).Diversity
	if dh >= dm {
		t.Errorf("mixed field should be more diverse: homo=%v mixed=%v", dh, dm)
	}
	if SpatialOf(pressio.FromFloat64(nil, 0)).Diversity != 0 {
		t.Error("empty diversity should be 0")
	}
}

func TestCodingGain(t *testing.T) {
	n := 4096
	smooth := make([]float64, n)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 100)
	}
	g := SpatialOf(pressio.FromFloat64(smooth, n)).CodingGain
	if g < 20 {
		t.Errorf("smooth field coding gain = %v dB, want > 20", g)
	}
	rng := rand.New(rand.NewSource(5))
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	gn := SpatialOf(pressio.FromFloat64(noise, n)).CodingGain
	if gn > 3 {
		t.Errorf("white noise coding gain = %v dB, want ~0", gn)
	}
	if SpatialOf(pressio.FromFloat64(make([]float64, 10), 10)).CodingGain != 60 {
		t.Error("constant field should cap at 60 dB")
	}
}

func TestGeneralDistortion(t *testing.T) {
	almost(t, "distortion", GeneralDistortion(2, 1), 0, 1e-12)
	almost(t, "distortion16", GeneralDistortion(2, 1.0/65536), 16, 1e-9)
	if GeneralDistortion(0, 1) != 0 || GeneralDistortion(1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestToFloat64(t *testing.T) {
	d32 := pressio.FromFloat32([]float32{1, 2, 3}, 3)
	v := Float64Run(d32, 0, d32.Len(), nil)
	if len(v) != 3 || v[2] != 3 {
		t.Errorf("float32 conversion wrong: %v", v)
	}
	d64 := pressio.FromFloat64([]float64{4, 5}, 2)
	if &Float64Run(d64, 0, d64.Len(), nil)[0] != &d64.Float64()[0] {
		t.Error("float64 should not be copied")
	}
	di := pressio.NewInt32(2)
	di.Set(1, 9)
	if Float64Run(di, 0, di.Len(), nil)[1] != 9 {
		t.Error("int32 conversion wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	// interpolation between order statistics: p25 of 1..5 is 2
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %g, want 2", got)
	}
	if got := Quantile([]float64{1, 2}, 0.75); got != 1.75 {
		t.Errorf("p75 of {1,2} = %g, want 1.75", got)
	}
	if got := Quantile(nil, 0.9); got != 0 {
		t.Errorf("empty input = %g, want 0", got)
	}
	// input must not be reordered
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("input was modified: %v", xs)
	}
}
