package stats

import (
	"math"
	"sort"
	"sync"

	"repro/internal/pressio"
)

// Summary is the fused feature extraction over one data buffer:
// min/max/mean/std/sparsity and (optionally) a fixed-width histogram,
// computed by two in-order sweeps over the native element type — no
// float64 materialization, no per-metric re-reads. One Summary is shared
// by every metric observing the same buffer (SummaryOf), which is what
// lets a chain of N metrics touch the data once instead of N times.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	Std      float64
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
func addAll[T float32 | float64](m *moments, xs []T) {
	for _, f := range xs {
		m.add(float64(f))
	}
}

// Summarize computes the fused summary of d with the given histogram bin
// count (0 skips the histogram) on the calling goroutine. Every sum runs
// in index order, so the result is the same on every machine; histogram
// counts are exact. Prefer SummaryOf, which keeps the result on the
// buffer.
func Summarize(d *pressio.Data, bins int) *Summary {
	n := d.Len()
	s := &Summary{N: n, Bins: bins}
	if n == 0 {
		if bins > 0 {
			s.Hist = make([]uint64, bins)
		}
		return s
	}

	// sweep 1: min/max/sum/zeros over the native type
	m := moments{min: math.Inf(1), max: math.Inf(-1)}
	switch d.DType() {
	case pressio.DTypeFloat32:
		addAll(&m, d.Float32())
	case pressio.DTypeFloat64:
		addAll(&m, d.Float64())
	default:
		for i := range n {
			m.add(d.At(i))
		}
	}
	s.ZeroCount = m.zeros
	s.NaNCount = m.nans
	s.InfCount = m.infs
	if m.n == 0 {
		// all-NaN buffer: no finite values to summarize
		if bins > 0 {
			s.Hist = make([]uint64, bins)
			s.Hist[0] = uint64(m.nans)
		}
		return s
	}
	s.Min = m.min
	s.Max = m.max
	s.Mean = m.sum / float64(m.n)

	// sweep 2: squared deviations and histogram against the known range
	lo, mean := s.Min, s.Mean
	degenerate := bins > 0 && s.Max <= lo
	scale := 0.0
	if bins > 0 && !degenerate {
		scale = float64(bins) / (s.Max - lo)
	}
	var sumSq float64
	if bins > 0 {
		s.Hist = make([]uint64, bins)
	}
	hist := s.Hist
	sweep := func(v float64) {
		if !math.IsNaN(v) {
			dv := v - mean
			sumSq += dv * dv
		}
		if bins > 0 {
			if degenerate {
				hist[0]++
				return
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
	switch d.DType() {
	case pressio.DTypeFloat32:
		for _, f := range d.Float32() {
			sweep(float64(f))
		}
	case pressio.DTypeFloat64:
		for _, v := range d.Float64() {
			sweep(v)
		}
	default:
		for i := range n {
			sweep(d.At(i))
		}
	}
	s.Std = math.Sqrt(sumSq / float64(m.n))
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

// f64View is the float64 conversion of one (Data pointer, version)
// generation. It is buffer-sized — twice a float32 buffer — so unlike
// the values above it does not ride on the buffer: pinning one per
// resident cell would triple the data tier's footprint.
type f64View struct {
	data    *pressio.Data
	version uint64
	f64     []float64
}

// viewCache is a small move-to-front cache of float64 views keyed by
// Data pointer identity. Eight entries cover the working set of a metric
// chain, a bench sweep cell, and concurrent predictd requests without
// pinning an unbounded amount of buffer-sized memory.
type viewCache struct {
	mu      sync.Mutex
	entries []*f64View // most recently used first
}

const viewCacheCap = 8

var views viewCache

// lookup returns (creating if needed) the entry for d's current
// generation. Callers must hold no locks; the entry is returned outside
// the cache lock and may be concurrently filled by racing goroutines —
// fills are idempotent, so last-write-wins is sound.
func (c *viewCache) lookup(d *pressio.Data) *f64View {
	v := d.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.data == d {
			if e.version != v {
				e = &f64View{data: d, version: v}
				c.entries[i] = e
			}
			// move to front
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return e
		}
	}
	e := &f64View{data: d, version: v}
	if len(c.entries) < viewCacheCap {
		c.entries = append(c.entries, nil)
	}
	copy(c.entries[1:], c.entries)
	c.entries[0] = e
	return e
}

// Float64Of returns a float64 view of d, cached per buffer generation: a
// float64 buffer is returned directly, anything else is converted once
// and reused by every subsequent caller (metrics, kernels, predictors)
// until the buffer mutates or eight other buffers have been viewed. The
// returned slice is shared — callers must not modify it.
func Float64Of(d *pressio.Data) []float64 {
	if d.DType() == pressio.DTypeFloat64 {
		return d.Float64()
	}
	e := views.lookup(d)
	views.mu.Lock()
	xs := e.f64
	views.mu.Unlock()
	if xs != nil {
		return xs
	}
	out := Float64Run(d, 0, d.Len(), nil)
	views.mu.Lock()
	e.f64 = out
	views.mu.Unlock()
	return out
}

// Float64Run returns elements [lo, hi) of d as float64 without viewing
// the rest of the buffer: a float64 buffer returns its own sub-slice, any
// other dtype converts just the run into dst (grown if too small) — the
// same float64(x) values Float64Of would hold at those indices. It is the
// reader for plugins that sample: the work, and for an mmap-backed cell
// the pages faulted in, are proportional to the run, and the view cache
// is neither consulted nor filled. The result may alias d or dst and is
// read-only; a reader of the whole buffer wants Float64Of's shared view.
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

// histRides reports whether a bins-wide histogram is small enough beside
// d to be kept on it: at most an eighth of the buffer's bytes. What rides
// on a buffer stays in memory for as long as the buffer does — for a
// predictd cell, as long as it is resident — so it has to be small beside
// it: 4096 bins are 32 KiB, twice a 16x16x16 float32 cell.
func histRides(d *pressio.Data, bins int) bool { return 8*8*bins <= d.ByteSize() }

// SummaryOf returns the fused summary of d's current generation, kept on
// the buffer so a chain of metrics — and every predictd request over the
// same resident cell — computes it once. bins == 0 requests moments
// only; a histogram with a different bin count than the stored one
// recomputes and replaces it. The moments are always kept; the histogram
// only where histRides, so on a small buffer every bins > 0 call sweeps
// again (cheap there, and predictd memoises the metric that asks).
// Concurrent first callers may both compute; the results are identical,
// so the last store wins.
//
// workers is ignored; benchmark/serve_trace.go still compiles against it.
func SummaryOf(d *pressio.Data, bins, workers int) *Summary {
	stored, _ := d.Derived(summaryKey{}).(*Summary)
	if stored != nil && (bins == 0 || stored.Bins == bins) {
		return stored
	}
	s := Summarize(d, bins)
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
// bound, kept on the buffer for the last bound asked for. The
// computation is a single sweep over the native element type; when the
// quantized key span is small it counts into a pooled dense array
// instead of a map, which is the common case for real error bounds and
// is several times faster.
func QuantizedEntropyOf(d *pressio.Data, abs float64) float64 {
	if qe, ok := d.Derived(qeKey{}).(qeValue); ok && qe.abs == abs {
		return qe.bits
	}
	bits := quantizedEntropyData(d, abs)
	d.StoreDerived(qeKey{}, qeValue{abs: abs, bits: bits})
	return bits
}

// denseCountPool recycles the dense counting arrays of the quantized
// entropy fast path.
var denseCountPool = sync.Pool{New: func() any { return []uint32(nil) }}

// maxDenseSpan bounds the dense fast path's key span (8 MiB of counters);
// wider spans (pathological bounds) fall back to the map path.
const maxDenseSpan = 1 << 21

func quantizedEntropyData(d *pressio.Data, abs float64) float64 {
	n := d.Len()
	if n == 0 {
		return 0
	}
	if abs <= 0 {
		// entropy of exact values — rare path, via the cached view
		return QuantizedEntropy(Float64Of(d), abs)
	}
	q := 2 * abs
	s := SummaryOf(d, 0, 0)
	if s.NaNCount == 0 && s.InfCount == 0 {
		kmin := int64(math.Floor(s.Min / q))
		kmax := int64(math.Floor(s.Max / q))
		span := kmax - kmin + 1
		if span > 0 && span <= maxDenseSpan {
			counts := denseCountPool.Get().([]uint32)
			if int64(len(counts)) < span {
				counts = make([]uint32, span)
			}
			counts = counts[:span]
			countInto := func(v float64) {
				k := int64(math.Floor(v/q)) - kmin
				// clamp: float rounding at the extremes can land one
				// cell outside the derived span
				if k < 0 {
					k = 0
				}
				if k >= span {
					k = span - 1
				}
				counts[k]++
			}
			switch d.DType() {
			case pressio.DTypeFloat32:
				for _, f := range d.Float32() {
					countInto(float64(f))
				}
			case pressio.DTypeFloat64:
				for _, v := range d.Float64() {
					countInto(v)
				}
			default:
				for i := 0; i < n; i++ {
					countInto(d.At(i))
				}
			}
			var h float64
			ft := float64(n)
			for i := range counts {
				c := counts[i]
				if c != 0 {
					p := float64(c) / ft
					h -= p * math.Log2(p)
					counts[i] = 0 // zero while hot for pool reuse
				}
			}
			denseCountPool.Put(counts)
			return h
		}
	}
	// exact fallback: count every quantized key in a map
	counts := make(map[int64]uint64, 1024)
	switch d.DType() {
	case pressio.DTypeFloat32:
		for _, f := range d.Float32() {
			counts[int64(math.Floor(float64(f)/q))]++
		}
	case pressio.DTypeFloat64:
		for _, v := range d.Float64() {
			counts[int64(math.Floor(v/q))]++
		}
	default:
		for i := range n {
			counts[int64(math.Floor(d.At(i)/q))]++
		}
	}
	// reduce in key order: summing -p·log2(p) in map iteration order would
	// make the entropy vary in its last bits from run to run
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
