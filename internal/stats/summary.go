package stats

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/pressio"
)

// Summary is the fused feature extraction over one data buffer:
// min/max/mean/std/variance/sparsity and (optionally) a fixed-width
// histogram, computed by two in-order sweeps over the native element type
// — no float64 materialization, no per-metric re-reads. One Summary is
// shared by every metric observing the same buffer (SummaryOf), which is
// what lets a chain of N metrics touch the data once instead of N times.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	Std      float64
	// Var is the population variance with Variance's bits: on NaN-free
	// data it is the sum of squared deviations Std is made of, in the
	// same order; with any NaN it is NaN (Mean and Std skip NaNs).
	Var float64
	// ZeroCount is the number of elements exactly equal to zero — the
	// numerator of the eps=0 sparsity fraction.
	ZeroCount int
	// NaNCount and InfCount record non-finite elements. Non-finite
	// values poison sums, so Mean/Std are computed over finite elements
	// only and the counts let callers detect the exclusion.
	NaNCount int
	InfCount int
	// Bins and Hist hold the equal-width histogram of the values over
	// [Min, Max], bit-identical to Histogram(xs, Min, Max, Bins). Hist
	// is nil when the summary was computed with bins == 0.
	Bins int
	Hist []uint64
}

// Range returns Max - Min, the value range feeding the stat:range and
// general-distortion features.
func (s *Summary) Range() float64 { return s.Max - s.Min }

// Sparsity returns the exact-zero fraction, matching Sparsity(xs, 0).
func (s *Summary) Sparsity() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.ZeroCount) / float64(s.N)
}

// Entropy returns the Shannon entropy in bits of the histogram, matching
// EntropyFromCounts(Histogram(xs, Min, Max, Bins)).
func (s *Summary) Entropy() float64 { return EntropyFromCounts(s.Hist) }

// moments is the first sweep's reduction.
type moments struct {
	min, max float64
	sum      float64
	n        int // finite element count
	zeros    int
	nans     int
	infs     int
}

func (m *moments) add(v float64) {
	if v == 0 {
		m.zeros++
	}
	if math.IsNaN(v) {
		m.nans++
		return
	}
	if math.IsInf(v, 0) {
		m.infs++
	}
	if v < m.min {
		m.min = v
	}
	if v > m.max {
		m.max = v
	}
	m.sum += v
	m.n++
}

// addAll folds a float32 or float64 buffer into m in index order.
func addAll[T Float](m *moments, xs []T) {
	for _, f := range xs {
		m.add(float64(f))
	}
}

// Summarize computes the fused summary of d with the given histogram bin
// count (0 skips the histogram) on the calling goroutine. Every sum runs
// in index order, so the result is the same on every machine; histogram
// counts are exact. Prefer SummaryOf, which keeps the result on the
// buffer.
func Summarize(d *pressio.Data, bins int) *Summary { return summarize(d, bins, nil) }

// summarize is Summarize, or — given d's moments as known — the one
// histogram sweep a summary with those moments still needs.
func summarize(d *pressio.Data, bins int, known *Summary) *Summary {
	if d.DType() == pressio.DTypeFloat32 {
		return summarizeOf(d.Float32(), bins, known)
	}
	return summarizeOf(Float64Run(d, 0, d.Len(), nil), bins, known)
}

func summarizeOf[T Float](xs []T, bins int, known *Summary) *Summary {
	s := &Summary{N: len(xs)}
	if known != nil {
		*s = *known
	} else {
		// sweep 1: min/max/sum/zeros
		m := moments{min: math.Inf(1), max: math.Inf(-1)}
		addAll(&m, xs)
		s.ZeroCount, s.NaNCount, s.InfCount = m.zeros, m.nans, m.infs
		if m.n > 0 { // else empty or all-NaN: no finite values to summarize
			s.Min, s.Max, s.Mean = m.min, m.max, m.sum/float64(m.n)
		}
		if m.nans > 0 {
			s.Var = math.NaN()
		}
	}
	s.Bins, s.Hist = bins, nil
	if bins > 0 {
		s.Hist = make([]uint64, bins)
	}
	finite := s.N - s.NaNCount
	sq := known == nil && finite > 0
	if !sq && bins == 0 {
		return s
	}

	// sweep 2: squared deviations and histogram against the known range
	lo, mean := s.Min, s.Mean
	degenerate := s.Max <= lo
	scale := 0.0
	if bins > 0 && !degenerate {
		scale = float64(bins) / (s.Max - lo)
	}
	var sumSq float64
	hist := s.Hist
	for _, f := range xs {
		v := float64(f)
		if sq && !math.IsNaN(v) {
			dv := v - mean
			sumSq += dv * dv
		}
		if bins > 0 {
			if degenerate {
				hist[0]++
				continue
			}
			i := int((v - lo) * scale)
			if i < 0 {
				i = 0
			}
			if i >= bins {
				i = bins - 1
			}
			hist[i]++
		}
	}
	if sq {
		v := sumSq / float64(finite)
		s.Std = math.Sqrt(v)
		if s.NaNCount == 0 {
			s.Var = v
		}
	}
	return s
}

// --- per-buffer derived values --------------------------------------------

// summaryKey and qeKey name this package's entries in a buffer's
// derived-value slot (pressio.Data.Derived): small results that live on
// the buffer they describe, are dropped when it mutates and collected
// when it is. Every goroutine holding the same *pressio.Data — all
// requests over one resident dataset.TieredCache cell — shares them
// without a process-wide lock.
type (
	summaryKey struct{}
	qeKey      struct{}
)

// qeValue is the quantized entropy at the last bound asked for.
type qeValue struct{ abs, bits float64 }

// Float64Run returns elements [lo, hi) of d as float64: a float64 buffer
// returns its own sub-slice, any other dtype converts just the run into
// dst (grown if too small), element by element as float64(x). It is the
// reader for plugins that sample, whose work, and for an mmap-backed cell
// the pages faulted in, are proportional to the run. Over the whole
// buffer it is how a typed kernel reads a dtype other than float32: the
// buffer itself for float64, a converted copy for the integer types. The
// result may alias d or dst and is read-only.
func Float64Run(d *pressio.Data, lo, hi int, dst []float64) []float64 {
	if d.DType() == pressio.DTypeFloat64 {
		return d.Float64()[lo:hi]
	}
	if cap(dst) < hi-lo {
		dst = make([]float64, hi-lo)
	}
	dst = dst[:hi-lo]
	if d.DType() == pressio.DTypeFloat32 {
		for i, v := range d.Float32()[lo:hi] {
			dst[i] = float64(v)
		}
	} else {
		for i := range dst {
			dst[i] = d.At(lo + i)
		}
	}
	return dst
}

// Rides reports whether a derived value of the given heap bytes is small
// enough beside d to be kept on it: at most an eighth of the buffer's
// bytes. What rides on a buffer stays in memory for as long as the buffer
// does — for a predictd cell, as long as it is resident, and its slot
// beyond that, within the disk tier's bound — so it has to be small
// beside it.
func Rides(d *pressio.Data, bytes int) bool { return bytes <= d.ByteSize()/8 }

// histRides is Rides for a bins-wide histogram: 4096 bins are 32 KiB,
// twice a 16x16x16 float32 cell.
func histRides(d *pressio.Data, bins int) bool { return Rides(d, 8*bins) }

// DerivedBytes implements pressio.DerivedSizer: the summary and its
// histogram.
func (s *Summary) DerivedBytes() int { return int(unsafe.Sizeof(*s)) + 8*len(s.Hist) }

// SummaryOf returns the fused summary of d's current generation, kept on
// the buffer so a chain of metrics — and every predictd request over the
// same resident cell — computes it once: `stat`, `distortion`,
// `quantized_entropy`'s key range and `spatial`'s variance read the
// moments, `entropy` the histogram. bins == 0 requests moments only (two
// sweeps). A histogram the stored summary lacks — none, or another bin
// count — costs one sweep against the stored moments, which are never
// recomputed. The moments are always kept; the histogram only where
// histRides, so on a small buffer every bins > 0 call sweeps again
// (cheap there, and predictd memoises the metric that asks). Concurrent
// first callers may both compute; the results are identical, so the last
// store wins.
//
// workers is ignored; benchmark/serve_trace.go still compiles against it.
func SummaryOf(d *pressio.Data, bins, workers int) *Summary {
	stored, _ := d.Derived(summaryKey{}).(*Summary)
	if stored != nil && (bins == 0 || stored.Bins == bins) {
		return stored
	}
	s := summarize(d, bins, stored)
	keep := s
	if bins != 0 && !histRides(d, bins) {
		moments := *s
		moments.Bins, moments.Hist = 0, nil
		keep = &moments
	}
	if keep.Bins != 0 || stored == nil {
		d.StoreDerived(summaryKey{}, keep)
	}
	return s
}

// QuantizedEntropyOf returns the quantized entropy of d at the given
// bound, kept on the buffer for the last bound asked for: one typed sweep
// that counts into a pooled dense window when the key span is small (the
// common case for real error bounds) and into a map otherwise.
func QuantizedEntropyOf(d *pressio.Data, abs float64) float64 {
	if qe, ok := d.Derived(qeKey{}).(qeValue); ok && qe.abs == abs {
		return qe.bits
	}
	bits := quantizedEntropyData(d, abs)
	d.StoreDerived(qeKey{}, qeValue{abs: abs, bits: bits})
	return bits
}

// denseCountPool recycles the dense counting windows of the quantized
// entropy fast path by pointer (a Put boxes nothing), each all zero.
var denseCountPool = sync.Pool{New: func() any { return new([]uint32) }}

// maxDenseSpan bounds the dense fast path's key span (8 MiB of counters);
// wider spans (pathological bounds) fall back to the map path.
const maxDenseSpan = 1 << 21

func quantizedEntropyData(d *pressio.Data, abs float64) float64 {
	n := d.Len()
	if n == 0 {
		return 0
	}
	if abs <= 0 {
		// entropy of exact values: a rare path, memoised on the buffer
		// like every other bound
		return QuantizedEntropy(Float64Run(d, 0, n, nil), abs)
	}
	s := SummaryOf(d, 0, 0)
	if d.DType() == pressio.DTypeFloat32 {
		return quantizedEntropyOf(d.Float32(), 2*abs, s)
	}
	return quantizedEntropyOf(Float64Run(d, 0, n, nil), 2*abs, s)
}

// quantizedEntropyOf is QuantizedEntropy(xs, q/2) for xs summarised by
// s: the keys floor(x/q) are counted into the pooled dense window when s
// is finite and their span at most maxDenseSpan, into a map otherwise,
// and reduced in key order, every element counted, either way.
func quantizedEntropyOf[T Float](xs []T, q float64, s *Summary) float64 {
	e := entropySum{ft: float64(len(xs))}
	if s.NaNCount == 0 && s.InfCount == 0 {
		kmin := int64(math.Floor(s.Min / q))
		span := int64(math.Floor(s.Max/q)) - kmin + 1
		if span > 0 && span <= maxDenseSpan {
			win := denseCountPool.Get().(*[]uint32)
			if int64(len(*win)) < span {
				*win = make([]uint32, span)
			}
			counts := (*win)[:span]
			for _, f := range xs {
				// clamp: float rounding at the extremes can land one
				// cell outside the derived span
				k := min(max(int64(math.Floor(float64(f)/q))-kmin, 0), span-1)
				counts[k]++
			}
			// one pass reduces in key order and zeroes the window for reuse
			for i, c := range counts {
				if c != 0 {
					e.add(uint64(c))
					counts[i] = 0
				}
			}
			denseCountPool.Put(win)
			return e.h
		}
	}
	counts := make(map[int64]uint64, 1024)
	for _, f := range xs {
		counts[int64(math.Floor(float64(f)/q))]++
	}
	// reduce in key order: summing -p·log2(p) in map iteration order would
	// make the entropy vary in its last bits from run to run
	keys := make([]int64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e.add(counts[k])
	}
	return e.h
}
