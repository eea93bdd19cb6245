package zfp

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/pressio"
)

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

func maxError(a, b *pressio.Data) float64 {
	worst := 0.0
	for i := 0; i < a.Len(); i++ {
		e := math.Abs(a.At(i) - b.At(i))
		if e > worst {
			worst = e
		}
	}
	return worst
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

func withTol(t *testing.T, tol float64) *Compressor {
	t.Helper()
	c := New()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, tol)
	if err := c.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLiftRoundTripQuick(t *testing.T) {
	f := func(a, b int32) bool {
		l, h := fwdLift(int64(a), int64(b))
		ga, gb := invLift(l, h)
		return ga == int64(a) && gb == int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nd := range []int{1, 2, 3} {
		size := 1
		for i := 0; i < nd; i++ {
			size *= blockLen
		}
		p := make([]int64, size)
		orig := make([]int64, size)
		for i := range p {
			p[i] = int64(rng.Int31()) - (1 << 30)
			orig[i] = p[i]
		}
		fwdXform(p, nd)
		invXform(p, nd)
		for i := range p {
			if p[i] != orig[i] {
				t.Errorf("nd=%d: element %d = %d, want %d", nd, i, p[i], orig[i])
			}
		}
	}
}

func TestNegabinaryRoundTripQuick(t *testing.T) {
	f := func(x int64) bool {
		// stay within the coded dynamic range
		x %= 1 << 50
		return fromNegabinary(toNegabinary(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegreeOrderIsPermutation(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		order := degreeOrders[nd]
		size := 1
		for i := 0; i < nd; i++ {
			size *= blockLen
		}
		if len(order) != size {
			t.Fatalf("nd=%d: order length %d, want %d", nd, len(order), size)
		}
		seen := make([]bool, size)
		for _, p := range order {
			if p < 0 || p >= size || seen[p] {
				t.Fatalf("nd=%d: invalid or duplicate index %d", nd, p)
			}
			seen[p] = true
		}
		// first coefficient must be the DC term (index 0)
		if order[0] != 0 {
			t.Errorf("nd=%d: order[0] = %d, want 0 (DC first)", nd, order[0])
		}
	}
}

func TestPlaneCoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{4, 16, 64} {
		for trial := 0; trial < 20; trial++ {
			u := make([]uint64, size)
			for i := range u {
				if rng.Intn(3) > 0 {
					u[i] = uint64(rng.Int63()) & lowMask(intPrec)
				}
			}
			for _, kmin := range []int{0, 5, 20} {
				var w bitstream.Writer
				encodePlanes(&w, u, kmin)
				got := make([]uint64, size)
				if err := decodePlanes(bitstream.NewReader(w.Bytes()), got, kmin); err != nil {
					t.Fatalf("size=%d kmin=%d: %v", size, kmin, err)
				}
				for i := range u {
					want := u[i] &^ lowMask(kmin)
					if got[i] != want {
						t.Fatalf("size=%d kmin=%d: coeff %d = %x, want %x", size, kmin, i, got[i], want)
					}
				}
			}
		}
	}
}

func TestRoundTrip3D(t *testing.T) {
	in := smoothField3D(16, 16, 8, 3)
	for _, tol := range []float64{1e-1, 1e-3, 1e-5} {
		c := withTol(t, tol)
		out := roundTrip(t, c, in)
		if e := maxError(in, out); e > tol {
			t.Errorf("tol=%v: max error %v exceeds tolerance", tol, e)
		}
	}
}

func TestRoundTripPartialBlocks(t *testing.T) {
	// dims not multiples of 4 exercise padding
	in := smoothField3D(9, 7, 5, 4)
	c := withTol(t, 1e-3)
	out := roundTrip(t, c, in)
	if e := maxError(in, out); e > 1e-3 {
		t.Errorf("partial blocks: max error %v", e)
	}
}

func TestRoundTrip1D2D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d1 := pressio.NewFloat64(101)
	for i := 0; i < d1.Len(); i++ {
		d1.Set(i, math.Sin(float64(i)/9)+0.01*rng.NormFloat64())
	}
	c := withTol(t, 1e-4)
	out := roundTrip(t, c, d1)
	if e := maxError(d1, out); e > 1e-4 {
		t.Errorf("1D: max error %v", e)
	}
	d2 := pressio.NewFloat32(33, 18)
	for i := 0; i < d2.Len(); i++ {
		d2.Set(i, 5*math.Cos(float64(i)/77))
	}
	out = roundTrip(t, c, d2)
	if e := maxError(d2, out); e > 1e-4 {
		t.Errorf("2D: max error %v", e)
	}
}

func TestRoundTrip4DFolds(t *testing.T) {
	in := pressio.NewFloat32(3, 5, 8, 8)
	for i := 0; i < in.Len(); i++ {
		in.Set(i, math.Sin(float64(i)/40))
	}
	c := withTol(t, 1e-3)
	out := roundTrip(t, c, in)
	if e := maxError(in, out); e > 1e-3 {
		t.Errorf("4D fold: max error %v", e)
	}
}

func TestErrorBoundQuick(t *testing.T) {
	f := func(raw []float32, tolSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				raw[i] = 0
			}
			if v > 1e8 || v < -1e8 {
				raw[i] = float32(math.Mod(float64(v), 1e8))
			}
		}
		tol := []float64{1e-1, 1e-3, 1e-6}[int(tolSel)%3]
		in := pressio.FromFloat32(raw, len(raw))
		c := New()
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, tol)
		c.SetOptions(opts)
		compressed, err := c.Compress(in)
		if err != nil {
			return false
		}
		out := pressio.NewFloat32(len(raw))
		if err := c.Decompress(compressed, out); err != nil {
			return false
		}
		return maxError(in, out) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestZeroBlocksAreCheap(t *testing.T) {
	in := pressio.NewFloat32(64, 64) // all zeros
	c := withTol(t, 1e-6)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	// 256 blocks × 1 bit + header: far below 100 bytes of payload
	if compressed.ByteSize() > 200 {
		t.Errorf("all-zero field compressed to %d bytes", compressed.ByteSize())
	}
	out := pressio.NewFloat32(64, 64)
	if err := c.Decompress(compressed, out); err != nil {
		t.Fatal(err)
	}
	if e := maxError(in, out); e != 0 {
		t.Errorf("zero field error %v", e)
	}
}

func TestLooserToleranceCompressesMore(t *testing.T) {
	in := smoothField3D(32, 16, 16, 6)
	prev := -1
	for _, tol := range []float64{1e-6, 1e-4, 1e-2} {
		c := withTol(t, tol)
		compressed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && compressed.ByteSize() >= prev {
			t.Errorf("tol=%v should compress better than tighter bound (%d vs %d)",
				tol, compressed.ByteSize(), prev)
		}
		prev = compressed.ByteSize()
	}
}

func TestDecompressValidation(t *testing.T) {
	in := smoothField3D(8, 8, 4, 7)
	c := withTol(t, 1e-3)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Decompress(compressed, pressio.NewFloat64(8, 8, 4)); err == nil {
		t.Error("dtype mismatch should be rejected")
	}
	if err := c.Decompress(compressed, pressio.NewFloat32(4, 4)); err == nil {
		t.Error("size mismatch should be rejected")
	}
	raw := compressed.Bytes()
	for _, n := range []int{0, 5, 16, len(raw) / 3} {
		if n > len(raw) {
			continue
		}
		if err := c.Decompress(pressio.NewByte(raw[:n]), pressio.NewFloat32(8, 8, 4)); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

// TestDecompressRefusesHeaderValuesPastInt rewrites one dim of a valid
// stream's header at a time. Each is checked before it becomes an int,
// which is 32 bits wide on 386 (make arch-check): a dim of 1<<32+8 must
// not read as 8 there and decode as the original grid. A dim past
// MaxElements is ErrCorrupt on every target; one within it only fails to
// match the output.
func TestDecompressRefusesHeaderValuesPastInt(t *testing.T) {
	c := withTol(t, 1e-3)
	compressed, err := c.Compress(smoothField3D(8, 8, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	// magic, dtype, nd, tolerance, then dims from 14
	cases := []struct {
		name  string
		off   int
		value uint64
	}{
		{"dim 1<<32+8", 14, 1<<32 + 8},
		{"dim MaxElements+1", 14, pressio.MaxElements + 1},
		{"dim 1<<63+8", 22, 1<<63 + 8},
		{"dim 1<<64-1", 30, 1<<64 - 1},
	}
	for _, tc := range cases {
		raw := append([]byte(nil), compressed.Bytes()...)
		binary.LittleEndian.PutUint64(raw[tc.off:], tc.value)
		err := c.Decompress(pressio.NewByte(raw), pressio.NewFloat32(8, 8, 4))
		wantCorrupt := tc.value > pressio.MaxElements
		if err == nil || wantCorrupt && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress returned %v, want an error (ErrCorrupt: %v)", tc.name, err, wantCorrupt)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	c := New()
	bad := pressio.Options{}
	bad.Set(pressio.OptAbs, 0.0)
	if err := c.SetOptions(bad); err == nil {
		t.Error("zero tolerance should be rejected")
	}
	if _, err := c.Compress(pressio.NewInt64(4)); err == nil {
		t.Error("integer input should be rejected")
	}
}

func TestRegisteredInPressio(t *testing.T) {
	comp, err := pressio.GetCompressor("zfp")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if comp.Name() != "zfp" {
		t.Errorf("Name = %q", comp.Name())
	}
}

func BenchmarkCompress(b *testing.B) {
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

func BenchmarkDecompress(b *testing.B) {
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
