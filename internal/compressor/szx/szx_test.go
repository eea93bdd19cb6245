package szx

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pressio"
)

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

func withAbs(t *testing.T, abs float64) *Compressor {
	t.Helper()
	c := New()
	o := pressio.Options{}
	o.Set(pressio.OptAbs, abs)
	if err := c.SetOptions(o); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTripMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := pressio.NewFloat32(100, 50)
	for i := 0; i < in.Len(); i++ {
		if i < in.Len()/2 {
			in.Set(i, 3.0) // constant half
		} else {
			in.Set(i, rng.NormFloat64()*10)
		}
	}
	c := withAbs(t, 1e-3)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	out := pressio.NewFloat32(100, 50)
	if err := c.Decompress(compressed, out); err != nil {
		t.Fatal(err)
	}
	if e := maxError(in, out); e > 1e-3 {
		t.Errorf("max error %v", e)
	}
	// the constant half should have compressed substantially
	if compressed.ByteSize() >= in.ByteSize() {
		t.Errorf("no compression achieved: %d >= %d", compressed.ByteSize(), in.ByteSize())
	}
}

func TestConstantFieldCompressesHard(t *testing.T) {
	in := pressio.NewFloat64(4096)
	for i := 0; i < in.Len(); i++ {
		in.Set(i, 7.25)
	}
	c := withAbs(t, 1e-6)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(in.ByteSize()) / float64(compressed.ByteSize())
	if cr < 50 {
		t.Errorf("constant field CR = %.1f, want > 50", cr)
	}
	out := pressio.NewFloat64(4096)
	if err := c.Decompress(compressed, out); err != nil {
		t.Fatal(err)
	}
	if e := maxError(in, out); e > 1e-6 {
		t.Errorf("max error %v", e)
	}
}

func TestErrorBoundQuick(t *testing.T) {
	f := func(raw []float32, sel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				raw[i] = 0
			}
		}
		abs := []float64{1e-1, 1e-3, 1e-6}[int(sel)%3]
		in := pressio.FromFloat32(raw, len(raw))
		c := New()
		o := pressio.Options{}
		o.Set(pressio.OptAbs, abs)
		o.Set(OptBlockSize, 8)
		c.SetOptions(o)
		compressed, err := c.Compress(in)
		if err != nil {
			return false
		}
		out := pressio.NewFloat32(len(raw))
		if err := c.Decompress(compressed, out); err != nil {
			return false
		}
		return maxError(in, out) <= abs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	c := New()
	bad := pressio.Options{}
	bad.Set(pressio.OptAbs, -2.0)
	if err := c.SetOptions(bad); err == nil {
		t.Error("negative bound accepted")
	}
	bad = pressio.Options{}
	bad.Set(OptBlockSize, 1)
	if err := c.SetOptions(bad); err == nil {
		t.Error("block size 1 accepted")
	}
	if _, err := c.Compress(pressio.NewInt32(4)); err == nil {
		t.Error("int input accepted")
	}
	in := pressio.NewFloat32(64)
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Decompress(compressed, pressio.NewFloat64(64)); err == nil {
		t.Error("dtype mismatch accepted")
	}
	raw := compressed.Bytes()
	for _, n := range []int{0, 6, 17} {
		if n > len(raw) {
			continue
		}
		if err := c.Decompress(pressio.NewByte(raw[:n]), pressio.NewFloat32(64)); err == nil {
			t.Errorf("truncation to %d accepted", n)
		}
	}
}

// TestDecompressRefusesHeaderValuesPastInt rewrites one header value of
// a valid stream at a time. Each value is checked before it becomes an
// int, which is 32 bits wide on 386 (make arch-check): a dim of 1<<32+8
// must not read as 8 there and decode as the original grid, a block size
// outside SetOptions' range must be refused. A dim past MaxElements is
// ErrCorrupt on every target; one within it only fails to match the
// output.
func TestDecompressRefusesHeaderValuesPastInt(t *testing.T) {
	c := withAbs(t, 1e-3)
	in := pressio.NewFloat32(8, 8, 8)
	for i := 0; i < in.Len(); i++ {
		in.Set(i, math.Sin(float64(i)/9))
	}
	compressed, err := c.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	// magic, dtype, nd, abs, then the block size at 14, dims from 18
	cases := []struct {
		name  string
		off   int
		value uint64
		width int // bytes
	}{
		{"dim 1<<32+8", 18, 1<<32 + 8, 8},
		{"dim MaxElements+1", 18, pressio.MaxElements + 1, 8},
		{"dim 1<<63+8", 26, 1<<63 + 8, 8},
		{"dim 1<<64-1", 34, 1<<64 - 1, 8},
		{"block 0", 14, 0, 4},
		{"block 1", 14, 1, 4},
		{"block 1<<20+1", 14, 1<<20 + 1, 4},
		{"block 1<<31-1", 14, 1<<31 - 1, 4},
		{"block 1<<32-1", 14, 1<<32 - 1, 4},
	}
	for _, tc := range cases {
		raw := append([]byte(nil), compressed.Bytes()...)
		if tc.width == 8 {
			binary.LittleEndian.PutUint64(raw[tc.off:], tc.value)
		} else {
			binary.LittleEndian.PutUint32(raw[tc.off:], uint32(tc.value))
		}
		err := c.Decompress(pressio.NewByte(raw), pressio.NewFloat32(8, 8, 8))
		wantCorrupt := tc.width == 4 || tc.value > pressio.MaxElements
		if err == nil || wantCorrupt && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decompress returned %v, want an error (ErrCorrupt: %v)", tc.name, err, wantCorrupt)
		}
	}
}

func TestRegisteredInPressio(t *testing.T) {
	if _, err := pressio.GetCompressor("szx"); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := pressio.NewFloat32(64, 64, 32)
	for i := 0; i < in.Len(); i++ {
		if rng.Float64() < 0.7 {
			in.Set(i, 0)
		} else {
			in.Set(i, rng.NormFloat64())
		}
	}
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
