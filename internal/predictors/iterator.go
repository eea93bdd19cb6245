// Package predictors implements the prediction schemes evaluated or
// surveyed by the paper as core.Scheme plugins plus their scheme-specific
// metric plugins: Tao 2019 (trial-based block sampling), Krasowska 2021
// (quantized entropy + variogram regression), Underwood 2023 (SVD
// truncation + spline regression), Ganguli 2023 (spatial features +
// mixture regression with conformal bounds), Jin 2022 (analytic
// ratio-quality model), Khan 2023 (SECRE-style stage surrogate with
// tightly-coupled sampling), and Rahman 2023 (FXRZ feature-driven random
// forest with interpolation augmentation).
package predictors

import (
	"repro/internal/compressor/sz3"
	"repro/internal/stats"
)

// naiveIterator walks a multi-dimensional index space the way the Jin 2022
// code the paper profiled did: its "multi-dimensional iterator" managed C++
// shared pointers per step, and the paper attributes Jin's error-dependent
// time (518 ms vs the 322 ms compressor) to that overhead surviving the
// optimizer (§6). Every step allocates a fresh coordinate snapshot and
// recomputes the flat index from scratch. jin_model runs it only when
// jin:fast_iterator is false — the §6 ablation; it serves with sz3's row stage.
type naiveIterator struct {
	dims   []int
	coords []int
	i, n   int
}

func newNaiveIterator(dims []int) *naiveIterator {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return &naiveIterator{dims: dims, n: n, i: -1}
}

// Next advances and returns the flat index, or ok=false at the end, the
// expensive way: rebuild the stride table,
// decompose i into coordinates afresh, and allocate the snapshot — every
// element, as the profiled C++ iterator effectively did once the
// optimizer failed to elide its shared-pointer bookkeeping.
func (it *naiveIterator) Next() (int, bool) {
	it.i++
	if it.i >= it.n {
		return 0, false
	}
	strides := make([]int, len(it.dims)) // per-step allocation, by design
	acc := 1
	for d := len(it.dims) - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= it.dims[d]
	}
	coords := make([]int, len(it.dims)) // snapshot allocation, by design
	t := it.i
	for d := 0; d < len(it.dims); d++ {
		coords[d] = t / strides[d]
		t %= strides[d]
	}
	it.coords = coords
	return it.i, true
}

// Coords returns the coordinates of the element Next just produced.
func (it *naiveIterator) Coords() []int { return it.coords }

// naiveLorenzoCodes is sz3's CodesLorenzo stage — the first-order Lorenzo
// terms read over original neighbours, as the analytic model does, not
// reconstructed ones, then q.Code — at an element per naiveIterator step.
func naiveLorenzoCodes[T stats.Float](codes []int32, vals []T, dims []int, q *sz3.Quantizer) {
	terms := sz3.LorenzoTerms(dims)
	it := newNaiveIterator(dims)
	for {
		idx, ok := it.Next()
		if !ok {
			break
		}
		var have uint32 // the dimensions with a neighbour behind this element
		for d, c := range it.Coords() {
			if c >= 1 {
				have |= 1 << d
			}
		}
		var pred float64
		for _, t := range terms {
			if t.Mask&have == t.Mask {
				pred += t.Sign * float64(vals[idx-t.Offset])
			}
		}
		codes[idx] = q.Code(float64(vals[idx]) - pred)
	}
}
