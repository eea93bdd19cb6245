// Package sz3 implements a pure-Go prediction-based error-bounded lossy
// compressor in the style of SZ3: values are predicted from already
// reconstructed neighbours (first-order Lorenzo prediction, or multi-level
// linear interpolation), the prediction residual is quantized with
// linear-scaling quantization against an absolute error bound, the
// quantization codes are entropy-coded with canonical Huffman coding, and
// the result is passed through a DEFLATE lossless stage.
//
// The stage structure matches the decomposition the Jin 2022 ratio-quality
// model analyses (prediction → quantization → encoding), which is what
// makes the prediction problem studied in the paper well-posed against
// this implementation.
//
// Every stage runs on its caller's goroutine (DESIGN.md §10). The Lorenzo
// kernels visit the contiguous innermost rows in index order, which puts
// every neighbour a row reads before it; the interpolation kernels visit
// the refinement levels coarse to fine; outliers are appended as the
// traversal meets them.
package sz3

import (
	"math"
	"strconv"
	"sync"

	"repro/internal/pressio"
	"repro/internal/stats"
)

// OutlierCode is the quantization-code sentinel marking a value that could
// not be quantized within the bin budget and is stored exactly.
const OutlierCode = math.MaxInt32

// Quantizer performs linear-scaling quantization of prediction residuals
// against an absolute error bound.
type Quantizer struct {
	Abs  float64 // absolute error bound (> 0)
	Bins int     // quantization bin budget (codes in (-Bins/2, Bins/2))
	// DType is the stored element type. Reconstructions round to its
	// precision — through float32 for DTypeFloat32, exact otherwise — so
	// the encoder sees exactly what the decoder will produce.
	DType pressio.DType
}

func (q *Quantizer) cast(x float64) float64 {
	if q.DType == pressio.DTypeFloat32 {
		return float64(float32(x))
	}
	return x
}

// Code maps a prediction residual to its quantization code, the nearest
// multiple of 2·Abs, or to OutlierCode when that falls outside the bin
// budget — which a NaN or infinite residual always does. It is the
// open-loop rule: Quantize adds the check that the reconstruction meets the
// bound at storage precision, and CodesLorenzo is this over a whole buffer.
func (q *Quantizer) Code(residual float64) int32 {
	c := math.Round(residual / (2 * q.Abs))
	if half := float64(q.Bins / 2); c < half && c > -half {
		return int32(c)
	}
	return OutlierCode
}

// Quantize encodes value against prediction. It returns the quantization
// code (or OutlierCode) and the reconstructed value the decoder will
// produce. For outliers the reconstruction is the cast of the original
// value itself, so the error is zero at storage precision.
func (q *Quantizer) Quantize(value, prediction float64) (code int32, recon float64) {
	if code = q.Code(value - prediction); code != OutlierCode {
		candidate := q.Reconstruct(code, prediction)
		if math.Abs(candidate-value) <= q.Abs {
			return code, candidate
		}
	}
	return OutlierCode, q.cast(value)
}

// Reconstruct decodes a quantization code against a prediction; outliers
// are resolved by the caller from the exact-value stream.
func (q *Quantizer) Reconstruct(code int32, prediction float64) float64 {
	return q.cast(prediction + float64(code)*2*q.Abs)
}

// LorenzoTerm is one neighbour contribution of the first-order Lorenzo
// predictor: x[i-Offset] * Sign, valid when every dimension in Mask (bit d
// for dims[d]) has a coordinate ≥ 1.
type LorenzoTerm struct {
	Offset int
	Sign   float64
	Mask   uint32
}

// LorenzoTerms enumerates the non-empty subsets of dimensions for dims
// (standard n-dimensional first-order Lorenzo) in the order the predictor
// sums them. Out-of-domain neighbours contribute zero, as in SZ. The
// compressor predicts from reconstructed neighbours; jin_model reads the
// same table over original values.
func LorenzoTerms(dims []int) []LorenzoTerm {
	nd := len(dims)
	str := stridesOf(dims)
	var terms []LorenzoTerm
	for s := 1; s < 1<<nd; s++ {
		off := 0
		bits := 0
		for d := 0; d < nd; d++ {
			if s&(1<<d) != 0 {
				off += str[d]
				bits++
			}
		}
		sign := 1.0
		if bits%2 == 0 {
			sign = -1.0
		}
		terms = append(terms, LorenzoTerm{Offset: off, Sign: sign, Mask: uint32(s)})
	}
	return terms
}

// lorenzoPlan caches everything shape-dependent the Lorenzo kernels need:
// the term enumeration and, for every boundary mask, the filtered term
// subsequence. Plans are immutable after construction and shared across
// calls and goroutines (the enumeration used to be rebuilt per call).
type lorenzoPlan struct {
	dims   []int
	str    []int
	terms  []LorenzoTerm
	byMask [][]LorenzoTerm // indexed by haveMask; order preserved
}

var lorenzoPlanCache sync.Map // string key -> *lorenzoPlan

func lorenzoPlanFor(dims []int) *lorenzoPlan {
	key := make([]byte, 0, 4*len(dims))
	for _, d := range dims {
		key = strconv.AppendInt(key, int64(d), 10)
		key = append(key, 'x')
	}
	if p, ok := lorenzoPlanCache.Load(string(key)); ok {
		return p.(*lorenzoPlan)
	}
	nd := len(dims)
	p := &lorenzoPlan{
		dims:  append([]int(nil), dims...),
		str:   stridesOf(dims),
		terms: LorenzoTerms(dims),
	}
	p.byMask = make([][]LorenzoTerm, 1<<nd)
	for m := uint32(0); m < 1<<nd; m++ {
		var sub []LorenzoTerm
		for _, t := range p.terms {
			if t.Mask&m == t.Mask {
				sub = append(sub, t)
			}
		}
		p.byMask[m] = sub
	}
	lorenzoPlanCache.Store(string(key), p)
	return p
}

// rowMask returns the boundary mask of the innermost row starting at flat
// index base: bit d is set when the row's coordinate on leading axis d is
// at least 1, so it has a neighbour behind it there.
func (p *lorenzoPlan) rowMask(base int) uint32 {
	var mask uint32
	for d, rem := 0, base; d < len(p.dims)-1; d++ {
		if rem >= p.str[d] {
			mask |= 1 << d
		}
		rem %= p.str[d]
	}
	return mask
}

// PredictQuantizeLorenzo runs the Lorenzo predictor + quantizer over vals
// (C-ordered with the given dims) into caller-provided codes and recon
// buffers (len(vals) each, fully overwritten, so the compressor can recycle
// them through a pool) and returns the exactly-stored outlier values in
// index order.
func PredictQuantizeLorenzo[T stats.Float](codes []int32, recon []float64, vals []T, dims []int, q *Quantizer) (outliers []float64) {
	n := len(vals)
	if n == 0 {
		return nil
	}
	plan := lorenzoPlanFor(dims)
	rowLen := plan.dims[len(plan.dims)-1]
	for base := 0; base < n; base += rowLen {
		outliers = lorenzoRowCompress(vals, recon, codes, base, rowLen, plan, plan.rowMask(base), q, outliers)
	}
	return outliers
}

// CodesLorenzo is the open-loop prediction + quantization stage the stage
// models in internal/predictors count codes with: codes[i] (len(vals), fully
// overwritten) is q.Code of vals[i] less its first-order Lorenzo prediction
// from the original neighbours, each read as float64(x) and summed in
// LorenzoTerms order. dims is a buffer's (jin_model) or []int{len(vals)}
// for a 1-D run, each value less the one before it and the first less
// zero (khan_surrogate, zperf_model).
// It runs a row at a time and calls nothing per element: a row has one
// boundary mask (the innermost bit clear for element 0, set after it), and
// interior rows of rank 1–3 take the closed-loop kernel's unrolled sum.
// Each element is converted to float64 once: a 1-D run keeps the value
// before in a register, and higher ranks read their neighbours from a
// pooled ring of float64 rows — at rank 3 the previous plane, the previous
// row and the current one — written as the rows go by.
// Bins is within the compressor's range, [4, 1<<24].
func CodesLorenzo[T stats.Float](q *Quantizer, codes []int32, vals []T, dims []int) {
	n, nd := len(vals), len(dims)
	if n == 0 {
		return
	}
	rowLen := dims[nd-1]
	rc := q.ResidualCoder()
	step, edge := rc.step, rc.edge
	if nd == 1 {
		prev := float64(vals[0])
		codes[0] = codeOf(prev/step, edge)
		for k := 1; k < n; k++ {
			v := float64(vals[k])
			codes[k] = codeOf((v-prev)/step, edge)
			prev = v
		}
		return
	}
	plan := lorenzoPlanFor(dims)
	// ring holds every neighbour an element of the current row reads: the
	// farthest, one back on every axis, is within the leading strides'
	// sum plus 2·rowLen of the current row's end, and as that size is a
	// multiple of rowLen, no row straddles the ring's end
	w := ringPool.Get().(*lorenzoRing)
	defer ringPool.Put(w)
	size := 2 * rowLen
	for _, st := range plan.str[:nd-1] {
		size += st
	}
	if cap(w.buf) < size {
		w.buf = make([]float64, size)
	}
	ring := w.buf[:size]
	for base := 0; base < n; base += rowLen {
		mask := plan.rowMask(base)
		row, out, cur := vals[base:base+rowLen], codes[base:base+rowLen], ring[base%size:][:rowLen]
		terms, rest := plan.byMask[mask], plan.byMask[mask|1<<(nd-1)]
		unrolled := nd <= 3 && len(rest) == len(plan.terms)
		for k := 0; k < rowLen && (k == 0 || !unrolled); k++ {
			cur[k] = float64(row[k])
			var pred float64
			for _, t := range terms {
				pred += t.Sign * ring[(base+k-t.Offset)%size]
			}
			out[k] = codeOf((cur[k]-pred)/step, edge)
			terms = rest
		}
		switch {
		case !unrolled: // the term lists took the whole row
		case nd == 2:
			r1 := ring[(base-rowLen)%size:][:rowLen]
			prev := cur[0]
			for k := 1; k < rowLen; k++ {
				v := float64(row[k])
				cur[k] = v
				out[k] = codeOf((v-(r1[k]+prev-r1[k-1]))/step, edge)
				prev = v
			}
		default:
			o1, o2 := plan.str[0], plan.str[1]
			r1, r2, r3 := ring[(base-o1)%size:][:rowLen], ring[(base-o2)%size:][:rowLen], ring[(base-o1-o2)%size:][:rowLen]
			p1, p2, p3, prev := r1[0], r2[0], r3[0], cur[0]
			for k := 1; k < rowLen; k++ {
				n1, n2, n3, v := r1[k], r2[k], r3[k], float64(row[k])
				cur[k] = v
				pred := n1 + n2 - n3 + prev - p1 - p2 + p3
				out[k] = codeOf((v-pred)/step, edge)
				p1, p2, p3, prev = n1, n2, n3, v
			}
		}
	}
}

// lorenzoRing is CodesLorenzo's float64 copy of the rows behind the
// current one, pooled by pointer so a Get and Put allocate nothing.
type lorenzoRing struct{ buf []float64 }

var ringPool = sync.Pool{New: func() any { return new(lorenzoRing) }}

// ResidualCoder is CodesLorenzo's rule for one residual at a Quantizer's
// bound: the same division by 2·Abs and the same rounding (codeOf), so
// a caller that keeps residuals apart from the order they arose in codes
// each exactly as CodesLorenzo does. The code is monotone in the
// residual: equal codes of sorted residuals are contiguous, with the
// outliers at both ends.
type ResidualCoder struct{ step, edge float64 }

// ResidualCoder returns the coder of q's bound and bin budget.
func (q *Quantizer) ResidualCoder() ResidualCoder {
	return ResidualCoder{step: 2 * q.Abs, edge: float64(q.Bins/2) - 0.5}
}

// Code is residual's quantization code, or OutlierCode.
func (c ResidualCoder) Code(residual float64) int32 { return codeOf(residual/c.step, c.edge) }

// codeOf is Code's rule for the quotient x = residual / (2·Abs), without
// math.Round: x rounds to a code inside the budget exactly when |x| < edge,
// half the budget less a half; it converts toward zero, then steps away
// from zero when the remainder — exact — is a half or more.
func codeOf(x, edge float64) int32 {
	if x < edge && x > -edge {
		c := int32(x)
		return c + int32(2*(x-float64(c)))
	}
	return OutlierCode
}

// lorenzoRowCompress quantizes one contiguous row. mask carries the
// boundary bits of the row's leading coordinates; the innermost bit is
// handled per element (clear for element 0, set afterwards). It returns
// outliers with the row's own appended.
func lorenzoRowCompress[T stats.Float](vals []T, recon []float64, codes []int32, base, rowLen int, plan *lorenzoPlan, mask uint32, q *Quantizer, outliers []float64) []float64 {
	nd := len(plan.dims)
	lastBit := uint32(1) << (nd - 1)
	first := plan.byMask[mask&^lastBit]
	rest := plan.byMask[mask|lastBit]
	step := 2 * q.Abs
	abs := q.Abs
	half := float64(q.Bins / 2)
	f32 := q.DType == pressio.DTypeFloat32

	// interior rows of 2-D/3-D data take a branch-free unrolled
	// prediction; everything else walks the cached filtered term list
	interior3 := nd == 3 && len(rest) == 7
	interior2 := nd == 2 && len(rest) == 3
	var o1, o2, o3 int
	if interior3 {
		o1, o2, o3 = plan.str[0], plan.str[1], plan.str[0]+plan.str[1]
	} else if interior2 {
		o1 = plan.str[0]
	}

	// rolling neighbour registers for the interior kernels: at element k,
	// the "-1" column values are exactly the previous iteration's loads,
	// and the in-row neighbour is the value just written — so interior
	// rows issue three (3-D) or one (2-D) fresh loads per element. The
	// summands and their order are unchanged, so the float results are
	// bit-identical to the term-list walk.
	var p1, p2, p3, prev float64
	if interior3 {
		p1, p2, p3 = recon[base-o1], recon[base-o2], recon[base-o3]
	} else if interior2 {
		p1 = recon[base-o1]
	}

	for k := 0; k < rowLen; k++ {
		i := base + k
		var pred float64
		switch {
		case k == 0:
			for _, t := range first {
				pred += t.Sign * recon[i-t.Offset]
			}
		case interior3:
			n1, n2, n3 := recon[i-o1], recon[i-o2], recon[i-o3]
			pred = n1 + n2 - n3 + prev - p1 - p2 + p3
			p1, p2, p3 = n1, n2, n3
		case interior2:
			n1 := recon[i-o1]
			pred = n1 + prev - p1
			p1 = n1
		default:
			for _, t := range rest {
				pred += t.Sign * recon[i-t.Offset]
			}
		}
		v := float64(vals[i])
		c := math.Round((v - pred) / step)
		if c < half && c > -half {
			cand := pred + c*step
			if f32 {
				cand = float64(float32(cand))
			}
			ad := cand - v
			if ad < 0 {
				ad = -ad
			}
			if ad <= abs {
				codes[i] = int32(c)
				recon[i] = cand
				prev = cand
				continue
			}
		}
		cand := v
		if f32 {
			cand = float64(float32(cand))
		}
		codes[i] = OutlierCode
		recon[i] = cand
		prev = cand
		outliers = append(outliers, cand)
	}
	return outliers
}

// reconstructLorenzo inverts PredictQuantizeLorenzo into recon (len(codes),
// fully overwritten) given the codes and outlier stream, which holds
// exactly one value per OutlierCode. Each value is rounded to T as it is
// stored, and a neighbour is read back as float64(x): the values the
// encoder predicted from.
func reconstructLorenzo[T stats.Float](recon []T, codes []int32, outliers []float64, dims []int, q *Quantizer) {
	n := len(codes)
	plan := lorenzoPlanFor(dims)
	rowLen := plan.dims[len(plan.dims)-1]
	for base := 0; base < n; base += rowLen {
		outliers = lorenzoRowDecompress(recon, codes, outliers, base, rowLen, plan, plan.rowMask(base), q)
	}
}

// lorenzoRowDecompress reconstructs one contiguous row, taking its
// outliers from the front of the stream; it returns the rest.
func lorenzoRowDecompress[T stats.Float](recon []T, codes []int32, outliers []float64, base, rowLen int, plan *lorenzoPlan, mask uint32, q *Quantizer) []float64 {
	nd := len(plan.dims)
	lastBit := uint32(1) << (nd - 1)
	first := plan.byMask[mask&^lastBit]
	rest := plan.byMask[mask|lastBit]
	step := 2 * q.Abs

	interior3 := nd == 3 && len(rest) == 7
	interior2 := nd == 2 && len(rest) == 3
	var o1, o2, o3 int
	if interior3 {
		o1, o2, o3 = plan.str[0], plan.str[1], plan.str[0]+plan.str[1]
	} else if interior2 {
		o1 = plan.str[0]
	}

	for k := 0; k < rowLen; k++ {
		i := base + k
		var pred float64
		switch {
		case k == 0:
			for _, t := range first {
				pred += t.Sign * float64(recon[i-t.Offset])
			}
		case interior3:
			pred = float64(recon[i-o1]) + float64(recon[i-o2]) - float64(recon[i-o3]) + float64(recon[i-1]) -
				float64(recon[i-o1-1]) - float64(recon[i-o2-1]) + float64(recon[i-o3-1])
		case interior2:
			pred = float64(recon[i-o1]) + float64(recon[i-1]) - float64(recon[i-o1-1])
		default:
			for _, t := range rest {
				pred += t.Sign * float64(recon[i-t.Offset])
			}
		}
		if codes[i] == OutlierCode {
			recon[i] = T(outliers[0])
			outliers = outliers[1:]
			continue
		}
		recon[i] = T(pred + float64(codes[i])*step)
	}
	return outliers
}

// interpOrder returns the traversal order of the multi-level linear
// interpolation predictor over n flattened elements: index 0 first, then
// odd multiples of each stride from coarse to fine. Every index appears
// exactly once.
func interpOrder(n int) []int {
	order := make([]int, 0, n)
	if n == 0 {
		return order
	}
	order = append(order, 0)
	maxStride := 1
	for maxStride*2 < n {
		maxStride *= 2
	}
	for s := maxStride; s >= 1; s /= 2 {
		for i := s; i < n; i += 2 * s {
			order = append(order, i)
		}
	}
	return order
}

// interpLevels invokes fn for each refinement level from coarse to fine
// with the level's stride and the traversal position of its first
// element. Within a level, element k sits at index s+2*s*k and traversal
// position pos0+k; its bracketing neighbours are multiples of 2*s, which
// earlier levels have already reconstructed.
func interpLevels(n int, fn func(s, pos0, count int)) {
	if n <= 1 {
		return
	}
	maxStride := 1
	for maxStride*2 < n {
		maxStride *= 2
	}
	pos := 1 // order[0] == 0 precedes all levels
	for s := maxStride; s >= 1; s /= 2 {
		count := (n - s + 2*s - 1) / (2 * s)
		fn(s, pos, count)
		pos += count
	}
}

// predictQuantizeInterp runs the multi-level linear interpolation
// predictor + quantizer over vals flattened to 1-D, into caller-provided
// codes and recon buffers (len(vals) each, fully overwritten). Codes and
// outliers are in traversal order.
func predictQuantizeInterp[T stats.Float](codes []int32, recon []float64, vals []T, q *Quantizer) (outliers []float64) {
	n := len(vals)
	if n == 0 {
		return nil
	}
	step := 2 * q.Abs
	abs := q.Abs
	half := float64(q.Bins / 2)
	f32 := q.DType == pressio.DTypeFloat32

	quantizeAt := func(i, pos int, pred float64) {
		v := float64(vals[i])
		c := math.Round((v - pred) / step)
		if c < half && c > -half {
			cand := pred + c*step
			if f32 {
				cand = float64(float32(cand))
			}
			ad := cand - v
			if ad < 0 {
				ad = -ad
			}
			if ad <= abs {
				codes[pos] = int32(c)
				recon[i] = cand
				return
			}
		}
		cand := v
		if f32 {
			cand = float64(float32(cand))
		}
		codes[pos] = OutlierCode
		recon[i] = cand
		outliers = append(outliers, cand)
	}

	quantizeAt(0, 0, 0)
	interpLevels(n, func(s, pos0, count int) {
		for k := range count {
			i := s + 2*s*k
			left := i - s
			right := i + s
			var pred float64
			if right < n {
				pred = (recon[left] + recon[right]) / 2
			} else {
				pred = recon[left]
			}
			quantizeAt(i, pos0+k, pred)
		}
	})
	return outliers
}

// reconstructInterp inverts predictQuantizeInterp into recon (fully
// overwritten), reading neighbours back as float64(x); outliers holds
// exactly one value per OutlierCode.
func reconstructInterp[T stats.Float](recon []T, codes []int32, outliers []float64, q *Quantizer) {
	n := len(recon)
	if n == 0 {
		return
	}
	step := 2 * q.Abs

	reconAt := func(i, pos int, pred float64) {
		if codes[pos] == OutlierCode {
			recon[i] = T(outliers[0])
			outliers = outliers[1:]
			return
		}
		recon[i] = T(pred + float64(codes[pos])*step)
	}
	reconAt(0, 0, 0)
	interpLevels(n, func(s, pos0, count int) {
		for k := range count {
			i := s + 2*s*k
			left := i - s
			right := i + s
			var pred float64
			if right < n {
				pred = (float64(recon[left]) + float64(recon[right])) / 2
			} else {
				pred = float64(recon[left])
			}
			reconAt(i, pos0+k, pred)
		}
	})
}
