package predictors

import (
	"math"
	"slices"
	"sync"

	"repro/internal/compressor/sz3"
	"repro/internal/huffman"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// codeModel is what khan_surrogate's SZ estimate, zperf_model and jin_model
// have in common once each has chosen which neighbours predict an element
// and which elements it samples. A stage writes a run of quantization codes
// into room — sz3's CodesLorenzo, or cm.q.Code per residual, the one
// statement of the rule: the nearest multiple of 2·abs, an outlier outside
// the bin budget, NaN and ±Inf included — take counts the run, and the codes
// are then tallied in a dense window exactly as wide as the span they
// cover, never the bin budget. The counts come back in code order (entropy,
// histogram), so a float sum over them runs in the same order on every
// call; out of a map it differed in its last bits from one call to the
// next. bitsPerValue is the one cost formula the three end in.
type codeModel struct {
	q        sz3.Quantizer
	codes    []int32 // every code taken, in arrival order
	lo, hi   int32   // the extremes of those inside the bin budget
	outliers uint64  // how many were OutlierCode
	// window is where entropy and histogram count the codes, window[i]
	// for code lo+i, and zero again while it is hot: its whole capacity is
	// zero between uses, so a warm model allocates and zeroes nothing wider
	// than the span of its codes.
	window []uint64
}

// codeModelPool recycles models: Get, defer Put, reset — and what a user
// returns is a copy (a histogram, a number), never the model's own memory.
var codeModelPool = sync.Pool{New: func() any { return new(codeModel) }}

// reset starts a count at one bound and bin budget. The models quantize at
// full precision whatever the buffer stores: DType matters to a stage run
// through q (zperf's regression), not to Code.
func (cm *codeModel) reset(abs float64, bins int) {
	cm.q = sz3.Quantizer{Abs: abs, Bins: bins, DType: pressio.DTypeFloat64}
	cm.codes, cm.outliers = cm.codes[:0], 0
	cm.lo, cm.hi = math.MaxInt32, math.MinInt32
}

// room is where a stage writes its next n codes; take then counts them.
func (cm *codeModel) room(n int) []int32 {
	at := len(cm.codes)
	cm.codes = slices.Grow(cm.codes, n)[:at+n]
	return cm.codes[at:]
}

// take counts the run of codes a stage wrote into room.
func (cm *codeModel) take(run []int32) {
	for _, c := range run {
		if c == sz3.OutlierCode {
			cm.outliers++
			continue
		}
		cm.lo, cm.hi = min(cm.lo, c), max(cm.hi, c)
	}
}

// n is how many codes were counted, outliers included.
func (cm *codeModel) n() uint64 { return uint64(len(cm.codes)) }

// tally fills the window from the codes; the caller zeroes it again.
func (cm *codeModel) tally() []uint64 {
	if cm.n() == cm.outliers {
		return nil
	}
	span := int(cm.hi) - int(cm.lo) + 1
	if cap(cm.window) < span {
		cm.window = make([]uint64, span)
	}
	window := cm.window[:span]
	for _, c := range cm.codes {
		if c != sz3.OutlierCode {
			window[c-cm.lo]++
		}
	}
	return window
}

// entropy is the Shannon entropy of the counted codes, in bits per code.
func (cm *codeModel) entropy() float64 {
	window := cm.tally()
	h := stats.EntropyFromCounts(window)
	clear(window)
	return h
}

// histogram is the counted codes in the form the Huffman analysis takes.
func (cm *codeModel) histogram() huffman.Histogram {
	window := cm.tally()
	h := huffman.DenseHistogram(cm.lo, window)
	clear(window)
	return h
}

// bitsPerValue turns the cost of a quantization code into the modelled
// stream's bits per value: outliers of n values pay an escape bit and the
// exact value instead of a code, the lossless stage keeps efficiency of
// what the coder wrote, and headerBits (per value) ride on top.
func bitsPerValue(bitsPerCode float64, outliers, n uint64, elemBits int, efficiency, headerBits float64) float64 {
	outFrac := float64(outliers) / float64(n)
	est := ((1-outFrac)*bitsPerCode+outFrac*float64(elemBits+1))*efficiency + headerBits
	if est <= 0 {
		est = 0.01
	}
	return est
}
