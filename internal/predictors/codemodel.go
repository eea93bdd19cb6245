package predictors

import (
	"math"
	"math/bits"
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
// the bin budget, NaN and ±Inf included — take counts the run, and tally
// lists the bins the codes occupy, costing the codes, not their span. The
// counts come back in code order (entropy, histogram), so a float sum over
// them runs in the same order on every call; out of a map it differed in
// its last bits from one call to the next. bitsPerValue is the one cost
// formula the three end in.
type codeModel struct {
	q        sz3.Quantizer
	codes    []int32 // every code taken, in arrival order
	lo, hi   int32   // the extremes of those inside the bin budget
	outliers uint64  // how many were OutlierCode
	// window[i] counts code lo+i and occupied has a bit per bin a code
	// landed in; tally zeroes what it set, so both are zero between uses
	window, occupied []uint64
	symbols          []int32  // the occupied bins in code order, as tally left them
	counts           []uint64 // and their counts
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

// take counts the run of codes a stage wrote into room, in locals: a
// field stored per code would chain each code behind the last store.
func (cm *codeModel) take(run []int32) {
	lo, hi, outliers := cm.lo, cm.hi, cm.outliers
	for _, c := range run {
		if c == sz3.OutlierCode {
			outliers++
			continue
		}
		lo, hi = min(lo, c), max(hi, c)
	}
	cm.lo, cm.hi, cm.outliers = lo, hi, outliers
}

// n is how many codes were counted, outliers included.
func (cm *codeModel) n() uint64 { return uint64(len(cm.codes)) }

// tally counts the codes into the window, then lists the bins they occupy
// in code order as symbols and counts, zeroing each as it goes. Codes
// spanning more bins than there are codes mark the bins they land in and
// the list walks the marks; a narrower span, cheaper to read whole than
// to mark per code, is read bin by bin.
func (cm *codeModel) tally() {
	cm.symbols, cm.counts = cm.symbols[:0], cm.counts[:0]
	if cm.n() == cm.outliers {
		return
	}
	lo, span := cm.lo, int(cm.hi)-int(cm.lo)+1
	if cap(cm.window) < span {
		cm.window = make([]uint64, span)
	}
	window := cm.window[:span]
	most := min(span, len(cm.codes)-int(cm.outliers))
	symbols, counts := slices.Grow(cm.symbols, most)[:most], slices.Grow(cm.counts, most)[:most]
	k := 0
	if span <= len(cm.codes) {
		for _, c := range cm.codes {
			if c != sz3.OutlierCode {
				window[c-lo]++
			}
		}
		for i, c := range window {
			if c != 0 {
				symbols[k], counts[k], window[i] = lo+int32(i), c, 0
				k++
			}
		}
	} else {
		words := (span + 63) / 64
		if cap(cm.occupied) < words {
			cm.occupied = make([]uint64, words)
		}
		occupied := cm.occupied[:words]
		for _, c := range cm.codes {
			if c != sz3.OutlierCode {
				i := uint32(c - lo)
				window[i]++
				occupied[i/64] |= 1 << (i % 64)
			}
		}
		for w, bin := range occupied {
			for ; bin != 0; bin &= bin - 1 {
				i := w*64 + bits.TrailingZeros64(bin)
				symbols[k], counts[k], window[i] = lo+int32(i), window[i], 0
				k++
			}
			occupied[w] = 0
		}
	}
	cm.symbols, cm.counts = symbols[:k], counts[:k]
}

// entropy is the Shannon entropy of the counted codes, in bits per code.
func (cm *codeModel) entropy() float64 {
	cm.tally()
	return stats.EntropyFromCounts(cm.counts)
}

// histogram is the counted codes in the form the Huffman analysis takes.
func (cm *codeModel) histogram() huffman.Histogram {
	cm.tally()
	return huffman.Histogram{Symbols: slices.Clone(cm.symbols), Counts: slices.Clone(cm.counts)}
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
