// Package stats implements the statistical feature extractors used by the
// compression-performance prediction schemes: moments, histograms, Shannon
// and quantized entropy, variograms (Krasowska 2021), truncated SVD
// (Underwood 2023), the spatial correlation/diversity/smoothness trio and
// coding gain (Ganguli 2023), and evaluation statistics such as the median
// absolute percentage error used in the paper's Table 2.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or 0 for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median, or 0 for empty input. The input is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, or 0 for empty input. The input
// is not modified. It backs the latency quantiles (p50/p90/p99) the
// serving subsystem reports on /statz.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if q <= 0 {
		return tmp[0]
	}
	if q >= 1 {
		return tmp[len(tmp)-1]
	}
	pos := q * float64(len(tmp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return tmp[lo]
	}
	frac := pos - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac
}

// MedAPE returns the median absolute percentage error (in percent) of
// predictions against actuals — the prediction-quality metric of the
// paper's evaluation. Pairs whose actual value is zero are skipped.
func MedAPE(predicted, actual []float64) float64 {
	var apes []float64
	for i := range predicted {
		if i >= len(actual) || actual[i] == 0 {
			continue
		}
		apes = append(apes, math.Abs((predicted[i]-actual[i])/actual[i])*100)
	}
	return Median(apes)
}

// Sparsity returns the fraction of elements whose magnitude is at most
// eps — the property Rahman 2023's sparsity correction factor targets.
func Sparsity(xs []float64, eps float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, v := range xs {
		if math.Abs(v) <= eps {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// Histogram buckets xs into bins equal-width bins over [lo, hi] and
// returns the counts. Values outside the range are clamped into the edge
// bins. bins must be positive.
func Histogram(xs []float64, lo, hi float64, bins int) []uint64 {
	counts := make([]uint64, bins)
	if hi <= lo {
		counts[0] = uint64(len(xs))
		return counts
	}
	scale := float64(bins) / (hi - lo)
	for _, v := range xs {
		i := int((v - lo) * scale)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts
}

// EntropyFromCounts returns the Shannon entropy in bits of the empirical
// distribution described by counts.
func EntropyFromCounts(counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// QuantizedEntropy returns the Shannon entropy in bits of the data after
// uniform quantization with bin width 2*absBound — the error-dependent
// statistic introduced by Krasowska 2021. A non-positive bound yields the
// entropy of the exact values.
func QuantizedEntropy(xs []float64, absBound float64) float64 {
	counts := make(map[int64]uint64, 1024)
	if absBound <= 0 {
		// entropy of distinct values
		exact := make(map[float64]uint64, 1024)
		for _, v := range xs {
			exact[v]++
		}
		keys := make([]float64, 0, len(exact))
		for k := range exact {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		cs := make([]uint64, 0, len(keys))
		for _, k := range keys {
			cs = append(cs, exact[k])
		}
		return EntropyFromCounts(cs)
	}
	q := 2 * absBound
	for _, v := range xs {
		counts[int64(math.Floor(v/q))]++
	}
	// key order, not map order: the float reduction must be reproducible
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cs := make([]uint64, 0, len(keys))
	for _, k := range keys {
		cs = append(cs, counts[k])
	}
	return EntropyFromCounts(cs)
}

// strides returns the element stride of each dimension for C-ordered dims.
func strides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// Variogram computes the empirical semivariogram gamma(h) for lags
// h = 1..maxLag along each dimension, averaged over dimensions:
//
//	gamma(h) = 1/(2 N_h) * sum (z(x+h e_d) - z(x))^2
//
// The returned slice has maxLag entries (gamma(1)..gamma(maxLag)). This is
// the "local variogram" statistic of Krasowska 2021; its small-lag values
// capture how quickly nearby samples decorrelate.
func Variogram(xs []float64, dims []int, maxLag int) []float64 {
	out := make([]float64, maxLag)
	if len(dims) == 0 {
		return out
	}
	str := strides(dims)
	for h := 1; h <= maxLag; h++ {
		var sum float64
		var count int
		for d := range dims {
			if dims[d] <= h {
				continue
			}
			// positions decompose as i = b·(stride·span) + c·stride + j
			// with c the coordinate along d; pairs are valid when
			// c + h < span, so iterate block/coordinate/offset without
			// per-element division
			stride := str[d]
			span := dims[d]
			block := stride * span
			lag := h * stride
			for base := 0; base < len(xs); base += block {
				for c := 0; c+h < span; c++ {
					row := base + c*stride
					a := xs[row : row+stride]
					b := xs[row+lag : row+lag+stride]
					for j := range a {
						diff := b[j] - a[j]
						sum += diff * diff
					}
					count += stride
				}
			}
		}
		if count > 0 {
			out[h-1] = sum / (2 * float64(count))
		}
	}
	return out
}

// SpatialCorrelation returns the mean lag-1 Pearson autocorrelation across
// dimensions — Ganguli 2023's spatial-correlation feature. It is in
// [-1, 1]; smooth fields approach 1.
func SpatialCorrelation(xs []float64, dims []int) float64 {
	if len(dims) == 0 || len(xs) == 0 {
		return 0
	}
	str := strides(dims)
	var total float64
	var used int
	for d := range dims {
		if dims[d] < 2 {
			continue
		}
		stride := str[d]
		span := dims[d]
		block := stride * span
		var sa, sb, saa, sbb, sab float64
		var n float64
		for base := 0; base < len(xs); base += block {
			for c := 0; c+1 < span; c++ {
				row := base + c*stride
				av := xs[row : row+stride]
				bv := xs[row+stride : row+2*stride]
				for j := range av {
					a, b := av[j], bv[j]
					sa += a
					sb += b
					saa += a * a
					sbb += b * b
					sab += a * b
				}
				n += float64(stride)
			}
		}
		if n < 2 {
			continue
		}
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		if va <= 0 || vb <= 0 {
			// constant along this dimension: perfectly predictable
			total += 1
			used++
			continue
		}
		total += cov / math.Sqrt(va*vb)
		used++
	}
	if used == 0 {
		return 0
	}
	return total / float64(used)
}

// SpatialSmoothness returns 1 - E[(z(x+1)-z(x))^2] / (2 Var z), clamped to
// [0, 1]: 1 for perfectly smooth fields, 0 for white noise (for which the
// mean squared difference equals twice the variance).
func SpatialSmoothness(xs []float64, dims []int) float64 {
	return smoothnessFrom(varianceAndLag1(xs, dims))
}

// SmoothnessAndCodingGain returns SpatialSmoothness and CodingGain from
// one variance and one lag-1 variogram: the sweeps both are made of.
func SmoothnessAndCodingGain(xs []float64, dims []int) (smoothness, gain float64) {
	v, g1 := varianceAndLag1(xs, dims)
	return smoothnessFrom(v, g1), codingGainFrom(v, g1)
}

// varianceAndLag1 returns Var z and the lag-1 semivariance, the latter
// only when the variance is non-zero (neither consumer reads it otherwise).
func varianceAndLag1(xs []float64, dims []int) (v, g1 float64) {
	if v = Variance(xs); v != 0 {
		g1 = Variogram(xs, dims, 1)[0]
	}
	return v, g1
}

func smoothnessFrom(v, g1 float64) float64 {
	if v == 0 {
		return 1
	}
	s := 1 - g1/v
	// Overflowing inputs (v or g1 infinite) yield NaN; treat as rough.
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// SpatialDiversity measures how heterogeneous the field is across space:
// the coefficient of variation of block standard deviations over a grid of
// blockCount^d blocks (capped by the data size). Homogeneous fields score
// near 0; fields mixing sparse and dense regions score high. This is the
// spatial-diversity feature of Ganguli 2023 and is the property the paper
// blames for sampling methods' failures on Hurricane.
func SpatialDiversity(xs []float64, dims []int, blockCount int) float64 {
	if len(xs) == 0 || blockCount < 1 {
		return 0
	}
	// Partition along the first dimension only; with C order this gives
	// contiguous slabs, which is both cache-friendly and
	// dimension-agnostic.
	n := len(xs)
	blocks := blockCount
	if blocks > n {
		blocks = n
	}
	blockStds := make([]float64, 0, blocks)
	size := n / blocks
	if size == 0 {
		size = 1
	}
	for b := 0; b < blocks; b++ {
		lo := b * size
		hi := lo + size
		if b == blocks-1 {
			hi = n
		}
		if lo >= n {
			break
		}
		blockStds = append(blockStds, Std(xs[lo:hi]))
	}
	m := Mean(blockStds)
	if m == 0 {
		return 0
	}
	return Std(blockStds) / m
}

// CodingGain returns the prediction gain of a one-step linear predictor in
// decibels: 10*log10(Var(z) / Var(z - z_prev)), averaged over dimensions
// and floored at 0. High coding gain means decorrelating transforms or
// predictors will shrink the data a lot — the coding-gain feature of
// Ganguli 2023.
func CodingGain(xs []float64, dims []int) float64 {
	return codingGainFrom(varianceAndLag1(xs, dims))
}

func codingGainFrom(v, g1 float64) float64 {
	if v == 0 {
		return 60 // constant field: cap at 60 dB, effectively "free"
	}
	residual := 2 * g1 // E[(z(x+1)-z(x))^2]
	if residual <= 0 {
		return 60
	}
	gain := 10 * math.Log10(v/(residual/2))
	if gain < 0 {
		return 0
	}
	if gain > 60 {
		return 60
	}
	return gain
}

// GeneralDistortion returns the log2 signal-range-to-error-bound ratio,
// log2(range / (2*abs)), floored at 0 — the number of significant bit
// planes an error-bounded compressor must preserve, Ganguli 2023's
// general-distortion feature and the primary error-dependent input of
// most schemes.
func GeneralDistortion(valueRange, absBound float64) float64 {
	if absBound <= 0 || valueRange <= 0 {
		return 0
	}
	d := math.Log2(valueRange / (2 * absBound))
	if d < 0 {
		return 0
	}
	return d
}
