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

	"repro/internal/pressio"
)

// Float lists the element types the typed kernels read and write in
// place: this package's sweeps, the compressors, jin_model and svd_trunc.
type Float interface{ float32 | float64 }

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 { return mean(xs) }

func mean[T Float](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += float64(v)
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, or 0 for empty input.
func Variance(xs []float64) float64 { return variance(xs) }

func variance[T Float](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := mean(xs)
	var s float64
	for _, v := range xs {
		d := float64(v) - m
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
// distribution described by counts, summed in their order.
func EntropyFromCounts(counts []uint64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	e := entropySum{ft: float64(total)}
	for _, c := range counts {
		e.add(c)
	}
	return e.h
}

// entropySum accumulates -Σ p·log2(p) over counts of total ft, in the
// order they are added. A count below 64 has its term computed once (at
// tight bounds nearly every count is 1–3); each term is rounded before it
// is subtracted, so no platform fuses the two and a memoized term is the
// bits a fresh one is.
type entropySum struct {
	memo  [64]float64 // memo[c] is c's term, 0 until computed
	ft, h float64
}

func (e *entropySum) add(c uint64) {
	if c < uint64(len(e.memo)) && e.memo[c] != 0 { // memo[0] stays 0
		e.h -= e.memo[c]
	} else if c != 0 {
		p := float64(c) / e.ft
		term := float64(p * math.Log2(p))
		if c < uint64(len(e.memo)) {
			e.memo[c] = term
		}
		e.h -= term
	}
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

// Variogram computes the empirical semivariogram gamma(h) for lags
// h = 1..maxLag along each dimension, averaged over dimensions:
//
//	gamma(h) = 1/(2 N_h) * sum (z(x+h e_d) - z(x))^2
//
// The returned slice has maxLag entries (gamma(1)..gamma(maxLag)). This is
// the "local variogram" statistic of Krasowska 2021; its small-lag values
// capture how quickly nearby samples decorrelate.
func Variogram[T Float](xs []T, dims []int, maxLag int) []float64 {
	out := make([]float64, maxLag)
	for h := 1; h <= maxLag; h++ {
		_, out[h-1] = lagSweep(xs, dims, h, false)
	}
	return out
}

// VariogramOf is Variogram over d's elements, read in place when they are
// float32 or float64: no float64 copy is made.
func VariogramOf(d *pressio.Data, maxLag int) []float64 {
	if d.DType() == pressio.DTypeFloat32 {
		return Variogram(d.Float32(), d.Dims(), maxLag)
	}
	return Variogram(Float64Run(d, 0, d.Len(), nil), d.Dims(), maxLag)
}

// lagSweep reads every pair of elements h apart along each dimension
// longer than h once and returns their semivariance and, when corr, the
// mean over those dimensions of the pairs' Pearson correlation. Along a
// dimension of stride s and span n, a slab's pairs are (x[k], x[k+h·s])
// for k < (n-h)·s: one contiguous loop per slab (a row, for the stride-1
// dimension), taken in index order, dimension by dimension.
func lagSweep[T Float](xs []T, dims []int, h int, corr bool) (meanCorr, gamma float64) {
	var sum, total float64
	var count, used int
	for d, span := range dims {
		if span <= h {
			continue
		}
		stride := 1
		for _, e := range dims[d+1:] {
			stride *= e
		}
		block, lag := stride*span, h*stride
		var sa, sb, saa, sbb, sab float64
		pairs := 0
		for base := 0; base < len(xs); base += block {
			a, b := xs[base:base+block-lag], xs[base+lag:base+block]
			b = b[:len(a)]
			pairs += len(a)
			if !corr {
				for j, x := range a {
					diff := float64(b[j]) - float64(x)
					sum += diff * diff
				}
				continue
			}
			for j, x := range a {
				av, bv := float64(x), float64(b[j])
				sa += av
				sb += bv
				saa += av * av
				sbb += bv * bv
				sab += av * bv
				diff := bv - av
				sum += diff * diff
			}
		}
		count += pairs
		if !corr || pairs < 2 {
			continue
		}
		n := float64(pairs)
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		used++
		if va <= 0 || vb <= 0 {
			// constant along this dimension: perfectly predictable
			total += 1
			continue
		}
		total += cov / math.Sqrt(va*vb)
	}
	if used > 0 {
		meanCorr = total / float64(used)
	}
	if count > 0 {
		gamma = sum / (2 * float64(count))
	}
	return meanCorr, gamma
}

// Spatial holds Ganguli 2023's error-agnostic spatial features of one
// buffer.
type Spatial struct {
	// Correlation is the mean lag-1 Pearson autocorrelation across
	// dimensions, in [-1, 1]; smooth fields approach 1.
	Correlation float64
	// Smoothness is 1 - E[(z(x+1)-z(x))^2] / (2 Var z), clamped to
	// [0, 1]: 1 for perfectly smooth fields, 0 for white noise (for
	// which the mean squared difference equals twice the variance).
	Smoothness float64
	// Diversity is the coefficient of variation of the standard
	// deviations of 64 contiguous slabs along the first dimension:
	// near 0 for homogeneous fields, high for fields mixing sparse and
	// dense regions — the property the paper blames for sampling
	// methods' failures on Hurricane.
	Diversity float64
	// CodingGain is the prediction gain of a one-step linear predictor
	// in decibels, 10*log10(Var z / gamma(1)), clamped to [0, 60]: high
	// when decorrelating transforms or predictors will shrink the data.
	CodingGain float64
}

// SpatialOf computes d's spatial features from its elements in place —
// for float32 data no float64 copy is made. The variance is SummaryOf's,
// one lag-1 sweep per dimension feeds both the correlation and the
// semivariance that smoothness and coding gain share, and the slab
// deviations read their slabs where they lie. Every sum runs in index
// order, so each feature has the bits of its float64 formula.
func SpatialOf(d *pressio.Data) Spatial {
	v := SummaryOf(d, 0, 0).Var
	if d.DType() == pressio.DTypeFloat32 {
		return spatial(d.Float32(), d.Dims(), v)
	}
	return spatial(Float64Run(d, 0, d.Len(), nil), d.Dims(), v)
}

func spatial[T Float](xs []T, dims []int, v float64) Spatial {
	corr, g1 := lagSweep(xs, dims, 1, true)
	return Spatial{
		Correlation: corr,
		Smoothness:  smoothnessFrom(v, g1),
		Diversity:   diversity(xs, 64),
		CodingGain:  codingGainFrom(v, g1),
	}
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

// diversity is the coefficient of variation of the standard deviations
// of min(blocks, len(xs)) contiguous slabs, the last taking the remainder.
func diversity[T Float](xs []T, blocks int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	stds := make([]float64, min(blocks, n))
	size := n / len(stds)
	for b := range stds {
		hi := (b + 1) * size
		if b == len(stds)-1 {
			hi = n
		}
		stds[b] = math.Sqrt(variance(xs[b*size : hi]))
	}
	m := Mean(stds)
	if m == 0 {
		return 0
	}
	return Std(stds) / m
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
