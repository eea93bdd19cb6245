package sz3

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pressio"
)

// smoothField3D builds a 3-D field with smooth structure plus mild noise.
func smoothField3D(nx, ny, nz int, seed int64) *pressio.Data {
	rng := rand.New(rand.NewSource(seed))
	d := pressio.NewFloat32(nx, ny, nz)
	v := d.Float32()
	idx := 0
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				v[idx] = float32(10*math.Sin(float64(i)/7)*math.Cos(float64(j)/9) +
					float64(k)/4 + 0.01*rng.NormFloat64())
				idx++
			}
		}
	}
	return d
}

func checkBound(t *testing.T, orig, recon *pressio.Data, abs float64) {
	t.Helper()
	worst := 0.0
	for i := 0; i < orig.Len(); i++ {
		e := math.Abs(orig.At(i) - recon.At(i))
		if e > worst {
			worst = e
		}
	}
	if worst > abs {
		t.Errorf("error bound violated: max error %v > %v", worst, abs)
	}
}

func roundTrip(t *testing.T, c *Compressor, in *pressio.Data) *pressio.Data {
	t.Helper()
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	out := pressio.New(in.DType(), in.Dims()...)
	if err := c.Decompress(compressed, out); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	return out
}

func TestRoundTripLorenzo3D(t *testing.T) {
	in := smoothField3D(16, 16, 8, 1)
	for _, abs := range []float64{1e-2, 1e-4, 1e-6} {
		c := New()
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, abs)
		if err := c.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		out := roundTrip(t, c, in)
		checkBound(t, in, out, abs)
	}
}

func TestRoundTripInterp(t *testing.T) {
	in := smoothField3D(16, 8, 8, 2)
	c := New()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	opts.Set(OptPredictor, "interp")
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	out := roundTrip(t, c, in)
	checkBound(t, in, out, 1e-3)
}

func TestRoundTripFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := pressio.NewFloat64(32, 32)
	for i := 0; i < in.Len(); i++ {
		in.Set(i, math.Sin(float64(i)/50)+0.1*rng.NormFloat64())
	}
	c := New()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-8)
	c.SetOptions(opts)
	out := roundTrip(t, c, in)
	checkBound(t, in, out, 1e-8)
}

func TestCompressionRatioOnSmoothData(t *testing.T) {
	in := smoothField3D(32, 32, 16, 4)
	c := New()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-2)
	c.SetOptions(opts)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(in.ByteSize()) / float64(compressed.ByteSize())
	if cr < 4 {
		t.Errorf("smooth data compression ratio = %.2f, expected > 4", cr)
	}
}

func TestLooserBoundCompressesMore(t *testing.T) {
	in := smoothField3D(32, 16, 16, 5)
	sizes := map[float64]int{}
	for _, abs := range []float64{1e-6, 1e-4, 1e-2} {
		c := New()
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, abs)
		c.SetOptions(opts)
		compressed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		sizes[abs] = compressed.ByteSize()
	}
	if !(sizes[1e-2] < sizes[1e-4] && sizes[1e-4] < sizes[1e-6]) {
		t.Errorf("sizes should decrease with looser bounds: %v", sizes)
	}
}

func TestSparseFieldCompressesWell(t *testing.T) {
	// mostly zero with a few spikes, like Hurricane's CLOUD/PRECIP
	in := pressio.NewFloat32(64, 64)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		in.Set(rng.Intn(in.Len()), rng.Float64()*100)
	}
	c := New()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-4)
	c.SetOptions(opts)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(in.ByteSize()) / float64(compressed.ByteSize())
	if cr < 10 {
		t.Errorf("sparse data compression ratio = %.2f, expected > 10", cr)
	}
	out := pressio.NewFloat32(64, 64)
	if err := c.Decompress(compressed, out); err != nil {
		t.Fatal(err)
	}
	checkBound(t, in, out, 1e-4)
}

func TestErrorBoundQuick(t *testing.T) {
	f := func(raw []float32, absSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				raw[i] = 0
			}
			// keep magnitudes in a regime where float32 ulp < bound
			if v > 1e6 || v < -1e6 {
				raw[i] = float32(math.Mod(float64(v), 1e6))
			}
		}
		abs := []float64{1e-1, 1e-2, 1e-3}[int(absSel)%3]
		in := pressio.FromFloat32(raw, len(raw))
		c := New()
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, abs)
		c.SetOptions(opts)
		compressed, err := c.Compress(in)
		if err != nil {
			return false
		}
		out := pressio.NewFloat32(len(raw))
		if err := c.Decompress(compressed, out); err != nil {
			return false
		}
		for i := range raw {
			if math.Abs(float64(raw[i])-out.At(i)) > abs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	c := New()
	bad := pressio.Options{}
	bad.Set(pressio.OptAbs, -1.0)
	if err := c.SetOptions(bad); err == nil {
		t.Error("negative bound should be rejected")
	}
	bad = pressio.Options{}
	bad.Set(OptPredictor, "psychic")
	if err := c.SetOptions(bad); err == nil {
		t.Error("unknown predictor should be rejected")
	}
	bad = pressio.Options{}
	bad.Set(OptQuantBins, 1)
	if err := c.SetOptions(bad); err == nil {
		t.Error("tiny bin budget should be rejected")
	}
	// round-trip through Options()
	opts := c.Options()
	if v, ok := opts.GetFloat(pressio.OptAbs); !ok || v <= 0 {
		t.Error("Options should report the bound")
	}
}

func TestDecompressValidation(t *testing.T) {
	in := smoothField3D(8, 8, 4, 7)
	c := New()
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	// wrong dtype
	if err := c.Decompress(compressed, pressio.NewFloat64(8, 8, 4)); err == nil {
		t.Error("dtype mismatch should be rejected")
	}
	// wrong size
	if err := c.Decompress(compressed, pressio.NewFloat32(8, 8)); err == nil {
		t.Error("size mismatch should be rejected")
	}
	// corrupt magic
	bad := compressed.Clone()
	bad.Bytes()[0] = 'X'
	if err := c.Decompress(bad, pressio.NewFloat32(8, 8, 4)); err == nil {
		t.Error("bad magic should be rejected")
	}
	// truncations must error, not panic
	raw := compressed.Bytes()
	for _, n := range []int{0, 3, 7, 20, len(raw) / 2} {
		if n > len(raw) {
			continue
		}
		if err := c.Decompress(pressio.NewByte(raw[:n]), pressio.NewFloat32(8, 8, 4)); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestUnsupportedDType(t *testing.T) {
	c := New()
	if _, err := c.Compress(pressio.NewInt32(4)); err == nil {
		t.Error("int32 input should be rejected")
	}
}

func TestRegisteredInPressio(t *testing.T) {
	comp, err := pressio.GetCompressor("sz3")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if comp.Name() != "sz3" {
		t.Errorf("Name = %q", comp.Name())
	}
}

func TestInterpOrderCoversAllOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025} {
		order := interpOrder(n)
		if len(order) != n {
			t.Errorf("n=%d: order has %d entries", n, len(order))
			continue
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Errorf("n=%d: bad or duplicate index %d", n, i)
				break
			}
			seen[i] = true
		}
	}
}

func TestQuantizerOutlierFallback(t *testing.T) {
	q := &Quantizer{Abs: 1e-6, Bins: 16, DType: pressio.DTypeFloat64}
	// diff way beyond the bin budget
	code, recon := q.Quantize(1e6, 0)
	if code != OutlierCode {
		t.Errorf("expected outlier, got code %d", code)
	}
	if recon != 1e6 {
		t.Errorf("outlier recon = %v, want exact", recon)
	}
	// in-budget value quantizes
	code, recon = q.Quantize(4e-6, 0)
	if code == OutlierCode {
		t.Error("small diff should quantize")
	}
	if math.Abs(recon-4e-6) > 1e-6 {
		t.Errorf("recon error %v", math.Abs(recon-4e-6))
	}
}

func BenchmarkCompressLorenzo(b *testing.B) {
	in := smoothField3D(64, 64, 32, 8)
	c := New()
	b.SetBytes(int64(in.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressLorenzo(b *testing.B) {
	in := smoothField3D(64, 64, 32, 9)
	c := New()
	compressed, err := c.Compress(in)
	if err != nil {
		b.Fatal(err)
	}
	out := pressio.NewFloat32(64, 64, 32)
	b.SetBytes(int64(in.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decompress(compressed, out); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRoundTripRegression(t *testing.T) {
	in := smoothField3D(16, 12, 8, 11)
	for _, abs := range []float64{1e-2, 1e-4} {
		c := New()
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, abs)
		opts.Set(OptPredictor, "regression")
		if err := c.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		out := roundTrip(t, c, in)
		checkBound(t, in, out, abs)
	}
}

func TestRegressionBeatsLorenzoOnGradients(t *testing.T) {
	// planar data with additive noise is the regression predictor's best
	// case: the hyperplane absorbs the gradient while Lorenzo's stencil
	// amplifies the noise into its residuals (why SZ2 carried this stage)
	rng := rand.New(rand.NewSource(21))
	in := pressio.NewFloat32(32, 32)
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			in.Set(i*32+j, float64(3*i)+float64(2*j)+0.3+0.5*rng.NormFloat64())
		}
	}
	sizeWith := func(pred string) int {
		c := New()
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 1e-3)
		opts.Set(OptPredictor, pred)
		if err := c.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		compressed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out := pressio.NewFloat32(32, 32)
		if err := c.Decompress(compressed, out); err != nil {
			t.Fatal(err)
		}
		checkBound(t, in, out, 1e-3)
		return compressed.ByteSize()
	}
	reg := sizeWith("regression")
	lor := sizeWith("lorenzo")
	if reg > lor {
		t.Errorf("regression (%dB) should beat lorenzo (%dB) on planar data", reg, lor)
	}
}

func TestRegressionPartialBlocks(t *testing.T) {
	// dims not multiples of the block edge
	in := smoothField3D(9, 7, 5, 12)
	c := New()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	opts.Set(OptPredictor, "regression")
	c.SetOptions(opts)
	out := roundTrip(t, c, in)
	checkBound(t, in, out, 1e-3)
}

// Code is the open-loop half of Quantize: whenever Quantize keeps a code —
// it falls back to an outlier only when the reconstruction misses the bound
// at storage precision — it is the code Code gives the residual, and what
// Code calls an outlier (bin budget, NaN, ±Inf) Quantize stores exactly.
func TestQuantizerCodeIsQuantizesFirstHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -1e30, 1e-300}
	draw := func() float64 {
		if rng.Intn(8) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	for _, q := range []*Quantizer{
		{Abs: 1e-4, Bins: 65536, DType: pressio.DTypeFloat32},
		{Abs: 1e-6, Bins: 65536, DType: pressio.DTypeFloat64},
		{Abs: 0.5, Bins: 16, DType: pressio.DTypeFloat64},
		{Abs: 1e-3, Bins: 5, DType: pressio.DTypeFloat32},
	} {
		kept, precision := 0, 0
		for i := 0; i < 20000; i++ {
			value, prediction := draw(), draw()
			want := q.Code(value - prediction)
			if want != OutlierCode && (int(want) >= q.Bins/2 || int(want) <= -(q.Bins/2)) {
				t.Fatalf("%+v: Code(%v) = %d outside the bin budget", *q, value-prediction, want)
			}
			got, recon := q.Quantize(value, prediction)
			switch {
			case got != OutlierCode:
				kept++
				if got != want {
					t.Fatalf("%+v: Quantize(%v, %v) = %d, Code = %d", *q, value, prediction, got, want)
				}
				if recon != q.Reconstruct(got, prediction) || math.Abs(recon-value) > q.Abs {
					t.Fatalf("%+v: Quantize(%v, %v) reconstructs %v", *q, value, prediction, recon)
				}
			case want != OutlierCode:
				precision++ // in budget, but off the bound once cast
			}
		}
		if kept == 0 {
			t.Errorf("%+v: no draw quantized", *q)
		}
		t.Logf("%+v: %d kept, %d outliers for precision", *q, kept, precision)
	}
	q := &Quantizer{Abs: 1e-4, Bins: 65536}
	for _, residual := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 32768 * 2e-4, -32768 * 2e-4} {
		if c := q.Code(residual); c != OutlierCode {
			t.Errorf("Code(%v) = %d, want OutlierCode", residual, c)
		}
	}
	if c := q.Code(32767 * 2e-4); c != 32767 {
		t.Errorf("Code at the last bin = %d, want 32767", c)
	}
}
