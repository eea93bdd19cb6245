package sz3

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// slowCodesLorenzo is the rule CodesLorenzo fuses, an element at a time:
// coordinates by division, every LorenzoTerms entry whose axes all have a
// neighbour behind the element, in order, then q.Code.
func slowCodesLorenzo(q *Quantizer, vals []float64, dims []int) []int32 {
	terms, str := LorenzoTerms(dims), stridesOf(dims)
	codes := make([]int32, len(vals))
	for i, v := range vals {
		var have uint32
		for d, rem := 0, i; d < len(dims); d++ {
			if rem/str[d] >= 1 {
				have |= 1 << d
			}
			rem %= str[d]
		}
		var pred float64
		for _, t := range terms {
			if t.Mask&have == t.Mask {
				pred += t.Sign * vals[i-t.Offset]
			}
		}
		codes[i] = q.Code(v - pred)
	}
	return codes
}

// checkCodesLorenzo holds both instantiations of CodesLorenzo to
// slowCodesLorenzo: over vals, and over vals rounded to float32 (read by
// the reference as float64(x)).
func checkCodesLorenzo(t *testing.T, q *Quantizer, vals []float64, dims []int) {
	t.Helper()
	checkCodesLorenzoOf(t, q, vals, dims)
	narrow := make([]float32, len(vals))
	for i, v := range vals {
		narrow[i] = float32(v)
	}
	checkCodesLorenzoOf(t, q, narrow, dims)
}

func checkCodesLorenzoOf[T stats.Float](t *testing.T, q *Quantizer, vals []T, dims []int) {
	t.Helper()
	got := make([]int32, len(vals))
	for i := range got {
		got[i] = -12345 // every slot must be overwritten
	}
	CodesLorenzo(q, got, vals, dims)
	wide := make([]float64, len(vals))
	for i, v := range vals {
		wide[i] = float64(v)
	}
	if want := slowCodesLorenzo(q, wide, dims); !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T dims %v abs=%g bins=%d: code[%d] = %d, q.Code over LorenzoTerms gives %d (value %v)",
					vals[0], dims, q.Abs, q.Bins, i, got[i], want[i], vals[i])
			}
		}
	}
}

// Every element's code is q.Code(v − Σ LorenzoTerms): ranks 1–4 with axes
// of length 1, 2 and 5 (rows shorter than any unroll, every boundary mask)
// and rows long enough to roll the neighbour registers; values that are
// NaN, ±Inf, −0 and denormal; residuals on ±0.5-bin ties (a bound of 0.5
// makes a bin 1 wide, so half-integers tie exactly) and on both sides of
// the bin budget's edge; the smallest, the default and the largest budget.
func TestCodesLorenzoIsCodeOverLorenzoTerms(t *testing.T) {
	var shapes [][]int
	var grow func(dims []int)
	grow = func(dims []int) {
		if len(dims) > 0 {
			shapes = append(shapes, slices.Clone(dims))
		}
		if len(dims) < 4 {
			for _, d := range []int{1, 2, 5} {
				grow(append(dims, d))
			}
		}
	}
	grow(nil)
	shapes = append(shapes, []int{67}, []int{6, 33}, []int{3, 4, 17}, []int{2, 3, 2, 9})

	rng := rand.New(rand.NewSource(28))
	for _, bins := range []int{4, 65536, 1 << 24} {
		half := float64(bins / 2)
		// in bins: ties, the budget's edge from both sides, and what no code holds
		pool := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1, -1,
			math.Nextafter(0.5, 0), math.Nextafter(-0.5, 0), math.Nextafter(1.5, 2),
			half - 0.5, 0.5 - half, math.Nextafter(half-0.5, 0), math.Nextafter(0.5-half, 0), half - 1, 1 - half, half, -half,
			math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64}
		for _, abs := range []float64{0.5, 1e-4} {
			q := &Quantizer{Abs: abs, Bins: bins}
			for _, dims := range shapes {
				n := 1
				for _, d := range dims {
					n *= d
				}
				for trial := 0; trial < 4; trial++ {
					vals := make([]float64, n)
					for i := range vals {
						switch {
						case trial == 0: // smooth: mostly small codes
							vals[i] = math.Sin(float64(i)/3) + 0.01*rng.NormFloat64()
						case trial == 1 || rng.Intn(3) == 0: // the pool alone, then mixed in
							vals[i] = pool[rng.Intn(len(pool))] * 2 * abs
						default: // multiples of half a bin: every residual ties or is whole
							vals[i] = float64(rng.Intn(13)-6) * abs
						}
					}
					checkCodesLorenzo(t, q, vals, dims)
				}
			}
		}
	}
}

// FuzzCodesLorenzo holds the row stage to q.Code over LorenzoTerms on
// whatever shape, bound, bin budget and raw value bits the fuzzer finds.
func FuzzCodesLorenzo(f *testing.F) {
	le := binary.LittleEndian
	raw := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(5), uint8(0), uint8(0), uint8(0), 0.5, uint32(0), raw(0.5, 1, 2.5, -0.5, -2, 1.5))
	f.Add(uint8(2), uint8(5), uint8(0), uint8(0), 1e-4, uint32(65532), raw(1, 1.0001, 1.0003, math.NaN(), 0.9999, math.Inf(-1)))
	f.Add(uint8(3), uint8(2), uint8(5), uint8(0), 0.5, uint32(1<<24-4), raw(8388607.5, 0, -8388607.5, 8388607, math.Copysign(0, -1), 5e-324))
	f.Add(uint8(2), uint8(1), uint8(3), uint8(4), 1e300, uint32(7), raw(math.MaxFloat64, -math.MaxFloat64, 1e-300))
	f.Fuzz(func(t *testing.T, d0, d1, d2, d3 uint8, abs float64, bins uint32, data []byte) {
		if !(abs > 0) || math.IsInf(abs, 0) {
			t.Skip()
		}
		var dims []int
		n := 1
		for _, d := range []uint8{d0, d1, d2, d3} {
			if d%6 != 0 { // 0 leaves the axis out: ranks 1–4, axes of 1–5
				dims = append(dims, int(d%6))
				n *= int(d % 6)
			}
		}
		if len(dims) == 0 {
			t.Skip()
		}
		vals := make([]float64, n)
		for i := range vals {
			if len(data) >= 8 {
				vals[i] = math.Float64frombits(le.Uint64(data[8*(i%(len(data)/8)):]))
			}
		}
		checkCodesLorenzo(t, &Quantizer{Abs: abs, Bins: 4 + int(bins%(1<<24-3))}, vals, dims)
	})
}
