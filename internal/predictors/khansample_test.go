package predictors

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/hurricane"
	"repro/internal/pressio"
)

// khanCR is khan_surrogate:cr of one BeginCompress of in at abs.
func khanCR(t testing.TB, in *pressio.Data, abs float64) float64 {
	t.Helper()
	m := &KhanSurrogate{Abs: abs}
	m.BeginCompress(in)
	cr, ok := m.Results().GetFloat("khan_surrogate:cr")
	if !ok {
		t.Fatal("khan_surrogate:cr missing")
	}
	return cr
}

// TestKhanSampleWalkMatchesPlainEstimate: a buffer asked at bound after
// bound answers from its sorted residual sample once it has been asked at
// khanBuildAsk fresh bounds, and every answer — before the build, at the
// build and after it, at each bound three times over — is bit-equal to
// the plain estimate of a copy of the buffer that was never asked before.
// The 8x8x8 cells' samples do not ride (stats.Rides), so those buffers
// never hold one.
func TestKhanSampleWalkMatchesPlainEstimate(t *testing.T) {
	bounds := []float64{1e-7, 5e-7, 1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	dimsList := [][]int{{64, 64, 96}, {32, 32, 64}, {16, 32, 32}, {8, 8, 8}}
	if testing.Short() {
		dimsList = dimsList[1:]
	}
	compared := 0
	for _, dims := range dimsList {
		rides := dims[0]*dims[1]*dims[2] > 512
		for _, field := range hurricane.FieldNames {
			for step := range 2 {
				in, err := hurricane.Field(field, step, dims)
				if err != nil {
					t.Fatal(err)
				}
				plain := make([]float64, len(bounds))
				for i, abs := range bounds {
					plain[i] = khanCR(t, in.Clone(), abs)
				}
				asks := 0
				for pass := range 3 {
					for i := range bounds {
						if pass == 1 { // the second pass runs the bounds backwards
							i = len(bounds) - 1 - i
						}
						got := khanCR(t, in, bounds[i])
						asks++
						if math.Float64bits(got) != math.Float64bits(plain[i]) {
							t.Fatalf("%s t%d %v abs=%g ask %d: cr %v, plain estimate %v", field, step, dims, bounds[i], asks, got, plain[i])
						}
						compared++
						_, held := in.Derived(khanSampleKey{0.02}).(*khanSample)
						if want := rides && asks >= khanBuildAsk; held != want {
							t.Fatalf("%s t%d %v ask %d: sample held = %v, want %v", field, step, dims, asks, held, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d answers compared", compared)
}

// TestKhanAsksCountFreshBounds: an ask at the bound asked last is not a
// fresh bound, so a buffer asked at one bound over and over — or at two,
// as table2 asks — never builds its sample.
func TestKhanAsksCountFreshBounds(t *testing.T) {
	in, err := hurricane.Field("TC", 0, []int{16, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, abs := range []float64{1e-4, 1e-4, 1e-4, 1e-6, 1e-6} {
		khanCR(t, in, abs)
	}
	if _, ok := in.Derived(khanSampleKey{0.02}).(*khanAsks); !ok {
		t.Fatal("two fresh bounds built a sample")
	}
	khanCR(t, in, 1e-4)
	if _, ok := in.Derived(khanSampleKey{0.02}).(*khanSample); !ok {
		t.Fatal("the third fresh bound built no sample")
	}
}

// float32Run decodes raw as float32 values. As bits, every 4 bytes are
// one value, NaNs, infinities, signed zeros and subnormals included; as
// steps, each byte is a small step from the last value, except 0xff-0xfb,
// which are NaN, +Inf, -Inf, -0 and the least subnormal.
func float32Run(raw []byte, steps bool) []float32 {
	if !steps {
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return vals
	}
	vals := make([]float32, len(raw))
	var at float32
	for i, b := range raw {
		switch b {
		case 0xff:
			vals[i] = float32(math.NaN())
		case 0xfe:
			vals[i] = float32(math.Inf(1))
		case 0xfd:
			vals[i] = float32(math.Inf(-1))
		case 0xfc:
			vals[i] = float32(math.Copysign(0, -1))
		case 0xfb:
			vals[i] = math.Float32frombits(1)
		default:
			at += float32(int8(b)) / 64
			vals[i] = at
		}
	}
	return vals
}

// FuzzKhanSampleWalk holds the walk of a sorted residual sample to the
// plain estimate over the same runs, bit for bit: random float32 runs (as
// raw bits, or as small steps with NaN, ±Inf, -0 and subnormals mixed
// in), at any bound — NaN, infinite, subnormal, and bounds at which every
// code is an outlier included — and three sample fractions.
func FuzzKhanSampleWalk(f *testing.F) {
	smooth := make([]byte, 4096)
	for i := range smooth {
		smooth[i] = byte(i*7) % 0xf0
	}
	special := []byte{0xff, 0x10, 0xfe, 0x20, 0xfd, 0xfc, 0xfb, 0x01, 0xff, 0xff, 0x80, 0x7f}
	f.Add(smooth, 1e-4, true, uint8(0))
	f.Add(smooth, 1e-9, true, uint8(1))
	f.Add(smooth, 1e300, true, uint8(2))
	f.Add(smooth, 5e-324, true, uint8(0)) // every finite residual but 0 an outlier
	f.Add(special, 1e-2, true, uint8(2))
	f.Add(special, math.NaN(), true, uint8(2))
	f.Add(special, math.Inf(1), true, uint8(2))
	f.Add(smooth, 1e-3, false, uint8(0))
	f.Add(smooth, 1e30, false, uint8(1))
	f.Add([]byte{}, 1e-3, false, uint8(0))
	fractions := []float64{0.02, 0.25, 1}
	f.Fuzz(func(t *testing.T, raw []byte, abs float64, steps bool, fraction uint8) {
		vals := float32Run(raw, steps)
		if len(vals) == 0 {
			return
		}
		in := pressio.FromFloat32(vals, len(vals))
		m := &KhanSurrogate{Abs: abs, Fraction: fractions[int(fraction)%len(fractions)]}
		sc := new(khanScratch)
		runs := m.sampleRuns(in.Len(), 16, nil)
		total := 0
		for _, run := range runs {
			total += run[1] - run[0]
		}
		plain := m.estimateSZFrom(in, runs, nil, sc)
		s := newKhanSample(in, runs, total, sc)
		for range 2 { // the second walk on the first's pooled counts
			if walk := m.estimateSZFrom(in, runs, s, sc); math.Float64bits(walk) != math.Float64bits(plain) {
				t.Fatalf("abs=%g fraction=%g over %d values: walk %v, plain %v", abs, m.Fraction, len(vals), walk, plain)
			}
		}
	})
}

// BenchmarkKhanWalk times one SZ estimate of serve_cold's 64x64x96 cells,
// one per field, at each bound: plain reads, codes and tallies the
// sample's runs, walk counts the codes of the buffer's sorted sample.
func BenchmarkKhanWalk(b *testing.B) {
	for _, field := range hurricane.FieldNames {
		in, err := hurricane.Field(field, 0, []int{64, 64, 96})
		if err != nil {
			b.Fatal(err)
		}
		for _, abs := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
			m := &KhanSurrogate{Abs: abs}
			sc := new(khanScratch)
			runs := m.sampleRuns(in.Len(), 16, nil)
			total := 0
			for _, run := range runs {
				total += run[1] - run[0]
			}
			s := newKhanSample(in, runs, total, sc)
			for _, way := range []struct {
				name   string
				sample *khanSample
			}{{"plain", nil}, {"walk", s}} {
				b.Run(fmt.Sprintf("%s/abs=%g/%s", field, abs, way.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						m.estimateSZFrom(in, runs, way.sample, sc)
					}
				})
			}
		}
	}
}
