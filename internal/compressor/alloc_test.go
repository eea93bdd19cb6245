package compressor_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/pressio"
)

// TestFloat32AllocatesNoMoreThanFloat64: the kernels read the caller's
// typed buffer and write the decompressed values into the caller's typed
// output, so a float32 cell costs no float64 copy of itself on either
// side. Compress plus decompress of a float32 cell never seen before
// allocates no more than the same values stored as float64. The bound is
// a power of two, at which sz3 quantizes both to the same codes: its two
// streams differ in the dtype byte alone (checked), so the comparison is
// like for like. zfp's and szx's float32 streams are the smaller.
func TestFloat32AllocatesNoMoreThanFloat64(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled scratch at random under the race detector")
	}
	fresh := func(t pressio.DType) *pressio.Data {
		d := pressio.New(t, 32, 32, 64)
		for i := 0; i < d.Len(); i++ {
			d.Set(i, float64(float32(math.Sin(float64(i)/29)+0.01*math.Cos(float64(i)))))
		}
		return d
	}
	for _, c := range []struct {
		name, predictor string
	}{
		{"sz3", "lorenzo"}, {"sz3", "interp"}, {"sz3", "regression"}, {"zfp", ""}, {"szx", ""},
	} {
		comp, err := pressio.GetCompressor(c.name)
		if err != nil {
			t.Fatal(err)
		}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 1.0/256)
		if c.predictor != "" {
			opts.Set("sz3:predictor", c.predictor)
		}
		if err := comp.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		// compress and decompress are counted apart, each at its leanest
		// of five after a collection: the first round trip fills the
		// pools, which a collection keeps for one cycle more, and one
		// started by the round trip itself can empty them
		streams := map[pressio.DType][]byte{}
		least := map[pressio.DType]uint64{}
		for _, dt := range []pressio.DType{pressio.DTypeFloat32, pressio.DTypeFloat64} {
			var leastC, leastD uint64 = math.MaxUint64, math.MaxUint64
			for try := 0; try < 6; try++ {
				in := fresh(dt)
				out := pressio.New(in.DType(), in.Dims()...)
				var before, mid, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				compressed, err := comp.Compress(in)
				runtime.ReadMemStats(&mid)
				if err == nil {
					err = comp.Decompress(compressed, out)
				}
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if try > 0 {
					leastC = min(leastC, mid.TotalAlloc-before.TotalAlloc)
					leastD = min(leastD, after.TotalAlloc-mid.TotalAlloc)
				}
				streams[dt] = compressed.Bytes()
			}
			least[dt] = leastC + leastD
		}
		if s32, s64 := streams[pressio.DTypeFloat32], streams[pressio.DTypeFloat64]; c.name == "sz3" && !bytes.Equal(s32[5:], s64[5:]) {
			t.Fatalf("sz3 %s: the float32 and float64 streams differ past the dtype byte", c.predictor)
		}
		if f32, f64 := least[pressio.DTypeFloat32], least[pressio.DTypeFloat64]; f32 > f64 {
			t.Errorf("%s %s: a float32 round trip allocated %d bytes, the same values as float64 %d",
				c.name, c.predictor, f32, f64)
		}
	}
}
