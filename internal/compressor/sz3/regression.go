package sz3

import "repro/internal/parallel"

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

// regBlock is one tile of the regression decomposition with its code
// stream offset precomputed, so blocks can be processed in any order
// while codes land at exactly the positions the serial traversal used.
type regBlock struct {
	origin [3]int
	size   [3]int
	start  int // offset of the block's first code in the code stream
	vol    int // number of elements in the block
}

// regressionBlockList materializes the block traversal with per-block
// code offsets. Blocks are fully independent (prediction reads original
// values, not reconstructions), so the list is the unit of parallelism.
func regressionBlockList(dims []int) []regBlock {
	var blocks []regBlock
	run := 0
	regressionBlocks(dims, func(origin, size []int) {
		var b regBlock
		vol := 1
		for d := range origin {
			b.origin[d] = origin[d]
			b.size[d] = size[d]
			vol *= size[d]
		}
		b.start = run
		b.vol = vol
		run += vol
		blocks = append(blocks, b)
	})
	return blocks
}

// PredictQuantizeRegression runs the block-regression predictor +
// quantizer into a caller-provided codes buffer (len(vals), fully
// overwritten). The returned coefficient list has one entry per block in
// traversal order; codes and outliers follow the same order. workers caps
// the parallelism (0 = all cores); output is identical for every worker
// count: blocks are independent, codes write to precomputed offsets, and
// outliers are concatenated in block order afterwards.
func PredictQuantizeRegression(codes []int32, vals []float64, dims []int, q *Quantizer, workers int) (outliers []float64, coeffs []float64) {
	if len(dims) > 3 {
		dims = flattenTo3(dims)
	}
	nd := len(dims)
	str := stridesOf(dims)
	blocks := regressionBlockList(dims)
	coeffs = make([]float64, len(blocks)*(nd+1))
	blockOutliers := make([][]float64, len(blocks))
	parallel.ForTasks(workers, len(blocks), func(b int) {
		bl := &blocks[b]
		co := fitBlock(vals, dims, str, bl.origin[:nd], bl.size[:nd])
		copy(coeffs[b*(nd+1):], co.c[:nd+1])
		var out []float64
		var local [3]int
		k := bl.start
		for {
			idx := 0
			for d := 0; d < nd; d++ {
				idx += (bl.origin[d] + local[d]) * str[d]
			}
			pred := co.c[0]
			for d := 0; d < nd; d++ {
				pred += co.c[d+1] * (float64(local[d]) - float64(bl.size[d]-1)/2)
			}
			code, r := q.Quantize(vals[idx], pred)
			codes[k] = code
			k++
			if code == OutlierCode {
				out = append(out, r)
			}
			d := nd - 1
			for ; d >= 0; d-- {
				local[d]++
				if local[d] < bl.size[d] {
					break
				}
				local[d] = 0
			}
			if d < 0 {
				break
			}
		}
		if len(out) > 0 {
			blockOutliers[b] = out
		}
	})
	for _, out := range blockOutliers {
		outliers = append(outliers, out...)
	}
	return outliers, coeffs
}

// reconstructRegression inverts PredictQuantizeRegression into a flat
// value slice.
func reconstructRegression(codes []int32, outliers, coeffs []float64, dims []int, q *Quantizer, workers int) ([]float64, error) {
	if len(dims) > 3 {
		dims = flattenTo3(dims)
	}
	nd := len(dims)
	str := stridesOf(dims)
	total := 1
	for _, d := range dims {
		total *= d
	}
	blocks := regressionBlockList(dims)
	if len(codes) != total || len(coeffs) < len(blocks)*(nd+1) {
		return nil, ErrCorrupt
	}
	// blocks consume the outlier stream in code order: precompute each
	// block's starting offset
	run := 0
	blockOi := make([]int, len(blocks))
	for b := range blocks {
		blockOi[b] = run
		lo := blocks[b].start
		for _, c := range codes[lo : lo+blocks[b].vol] {
			if c == OutlierCode {
				run++
			}
		}
	}
	if run > len(outliers) {
		return nil, ErrCorrupt
	}
	out := make([]float64, total)
	parallel.ForTasks(workers, len(blocks), func(b int) {
		bl := &blocks[b]
		var co regCoeffs
		copy(co.c[:nd+1], coeffs[b*(nd+1):])
		var local [3]int
		k := bl.start
		oi := blockOi[b]
		for {
			idx := 0
			for d := 0; d < nd; d++ {
				idx += (bl.origin[d] + local[d]) * str[d]
			}
			code := codes[k]
			k++
			if code == OutlierCode {
				out[idx] = q.cast(outliers[oi])
				oi++
			} else {
				pred := co.c[0]
				for d := 0; d < nd; d++ {
					pred += co.c[d+1] * (float64(local[d]) - float64(bl.size[d]-1)/2)
				}
				out[idx] = q.Reconstruct(code, pred)
			}
			d := nd - 1
			for ; d >= 0; d-- {
				local[d]++
				if local[d] < bl.size[d] {
					break
				}
				local[d] = 0
			}
			if d < 0 {
				break
			}
		}
	})
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
