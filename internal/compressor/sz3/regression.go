package sz3

// Block-regression prediction, the hallmark predictor of SZ2 (which the
// paper's future-work item (3) contrasts with SZ3's interpolation): the
// domain is tiled into fixed-size blocks, each block's values are fitted
// with a hyperplane over the grid coordinates, the (quantized)
// coefficients are transmitted, and residuals against the hyperplane are
// quantized like any other prediction residual. Unlike Lorenzo, the
// predictor parameters travel with the stream, so prediction reads
// original values — there is no reconstruction feedback loop.

// regBlockEdge is the block edge length (SZ2 uses 6; 8 aligns better
// with power-of-two dims).
const regBlockEdge = 8

// regCoeffs is one block's hyperplane: v ≈ C0 + sum_d Cd·(coord_d -
// blockCenter_d). Stored at float32 precision in the stream.
type regCoeffs struct {
	c [4]float64 // intercept + up to 3 slopes (unused dims stay 0)
}

// fitBlock computes least-squares hyperplane coefficients for one block.
// With coordinates centred per axis the normal equations are diagonal:
// slope_d = Σ v·(x_d - x̄_d) / Σ (x_d - x̄_d)², intercept = mean.
func fitBlock(vals []float64, dims, str, origin, size []int) regCoeffs {
	nd := len(dims)
	var co regCoeffs
	n := 0
	var sum float64
	// centre of the block along each axis
	var center [4]float64
	for d := 0; d < nd; d++ {
		center[d] = float64(size[d]-1) / 2
	}
	var num, den [4]float64
	forEachInBlock(dims, str, origin, size, func(idx int, local []int) {
		v := vals[idx]
		sum += v
		n++
		for d := 0; d < nd; d++ {
			dx := float64(local[d]) - center[d]
			num[d] += v * dx
			den[d] += dx * dx
		}
	})
	if n == 0 {
		return co
	}
	co.c[0] = sum / float64(n)
	for d := 0; d < nd; d++ {
		if den[d] > 0 {
			co.c[d+1] = num[d] / den[d]
		}
	}
	// storage precision: the stream carries float32 coefficients
	for i := range co.c {
		co.c[i] = float64(float32(co.c[i]))
	}
	return co
}

// forEachInBlock visits every element of the block at origin with the
// given per-axis size, passing the flat index and local coordinates.
func forEachInBlock(dims, str, origin, size []int, f func(idx int, local []int)) {
	nd := len(dims)
	local := make([]int, nd)
	for {
		idx := 0
		for d := 0; d < nd; d++ {
			idx += (origin[d] + local[d]) * str[d]
		}
		f(idx, local)
		d := nd - 1
		for ; d >= 0; d-- {
			local[d]++
			if local[d] < size[d] {
				break
			}
			local[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// regressionBlocks enumerates block origins and clamped sizes over dims.
func regressionBlocks(dims []int, f func(origin, size []int)) {
	nd := len(dims)
	origin := make([]int, nd)
	size := make([]int, nd)
	for {
		for d := 0; d < nd; d++ {
			size[d] = regBlockEdge
			if origin[d]+size[d] > dims[d] {
				size[d] = dims[d] - origin[d]
			}
		}
		f(origin, size)
		d := nd - 1
		for ; d >= 0; d-- {
			origin[d] += regBlockEdge
			if origin[d] < dims[d] {
				break
			}
			origin[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// regressionBlockCount is the number of blocks regressionBlocks visits.
func regressionBlockCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= (d + regBlockEdge - 1) / regBlockEdge
	}
	return n
}

// PredictQuantizeRegression runs the block-regression predictor +
// quantizer into a caller-provided codes buffer (len(vals), fully
// overwritten). Blocks are visited in traversal order; the returned
// coefficient list has one entry per block, and codes and outliers follow
// the same order.
func PredictQuantizeRegression(codes []int32, vals []float64, dims []int, q *Quantizer) (outliers []float64, coeffs []float64) {
	if len(dims) > 3 {
		dims = flattenTo3(dims)
	}
	nd := len(dims)
	str := stridesOf(dims)
	coeffs = make([]float64, 0, regressionBlockCount(dims)*(nd+1))
	k := 0
	regressionBlocks(dims, func(origin, size []int) {
		co := fitBlock(vals, dims, str, origin, size)
		coeffs = append(coeffs, co.c[:nd+1]...)
		var local [3]int
		for {
			idx := 0
			for d := 0; d < nd; d++ {
				idx += (origin[d] + local[d]) * str[d]
			}
			pred := co.c[0]
			for d := 0; d < nd; d++ {
				pred += co.c[d+1] * (float64(local[d]) - float64(size[d]-1)/2)
			}
			code, r := q.Quantize(vals[idx], pred)
			codes[k] = code
			k++
			if code == OutlierCode {
				outliers = append(outliers, r)
			}
			d := nd - 1
			for ; d >= 0; d-- {
				local[d]++
				if local[d] < size[d] {
					break
				}
				local[d] = 0
			}
			if d < 0 {
				return
			}
		}
	})
	return outliers, coeffs
}

// reconstructRegression inverts PredictQuantizeRegression into a flat
// value slice.
func reconstructRegression(codes []int32, outliers, coeffs []float64, dims []int, q *Quantizer) ([]float64, error) {
	if len(dims) > 3 {
		dims = flattenTo3(dims)
	}
	nd := len(dims)
	str := stridesOf(dims)
	total := 1
	for _, d := range dims {
		total *= d
	}
	if len(codes) != total || len(coeffs) < regressionBlockCount(dims)*(nd+1) {
		return nil, ErrCorrupt
	}
	out := make([]float64, total)
	k, oi := 0, 0
	short := false // the codes name more outliers than the stream holds
	regressionBlocks(dims, func(origin, size []int) {
		var co regCoeffs
		copy(co.c[:nd+1], coeffs)
		coeffs = coeffs[nd+1:]
		var local [3]int
		for !short {
			idx := 0
			for d := 0; d < nd; d++ {
				idx += (origin[d] + local[d]) * str[d]
			}
			code := codes[k]
			k++
			if code == OutlierCode {
				if oi == len(outliers) {
					short = true
					return
				}
				out[idx] = q.cast(outliers[oi])
				oi++
			} else {
				pred := co.c[0]
				for d := 0; d < nd; d++ {
					pred += co.c[d+1] * (float64(local[d]) - float64(size[d]-1)/2)
				}
				out[idx] = q.Reconstruct(code, pred)
			}
			d := nd - 1
			for ; d >= 0; d-- {
				local[d]++
				if local[d] < size[d] {
					break
				}
				local[d] = 0
			}
			if d < 0 {
				return
			}
		}
	})
	if short {
		return nil, ErrCorrupt
	}
	return out, nil
}

// flattenTo3 folds >3-dimensional shapes into 3 dims (leading dims merge).
func flattenTo3(dims []int) []int {
	lead := 1
	for _, d := range dims[:len(dims)-2] {
		lead *= d
	}
	return []int{lead, dims[len(dims)-2], dims[len(dims)-1]}
}

func stridesOf(dims []int) []int {
	str := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		str[i] = acc
		acc *= dims[i]
	}
	return str
}
