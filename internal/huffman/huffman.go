// Package huffman implements a canonical Huffman coder over integer
// symbols. It is the entropy-coding stage of the sz3 compressor and the
// reference implementation against which the Jin ratio-quality model's
// Huffman-efficiency estimate is validated.
//
// The code table is serialized canonically (symbol, code length) so the
// decoder can rebuild the exact codes without transmitting them; this keeps
// the header small even for the 2^16-bin quantizer alphabets SZ-style
// compressors use.
//
// A table is built from a histogram ordered by symbol and costs its
// alphabet once: a radix sort of the leaves by count, a two-queue merge, one
// reverse pass for the depths and a counting sort by length for the
// canonical codes, all over pooled flat arrays.
//
// The per-element hot paths avoid map operations too: the histogram counts
// into a dense window array (quantizer codes cluster tightly; outlier
// sentinels overflow into a short sorted list), encoding looks codes up in
// a dense packed table, and decoding drives a canonical first-code table
// through a K-bit prefix lookup instead of walking a pointer trie.
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitstream"
)

// maxCodeLen bounds code lengths; 58 leaves room in the canonical
// construction for any realistic alphabet while fitting in a uint64 with
// room for length counting.
const maxCodeLen = 58

// ErrCorrupt is returned when a serialized stream fails validation.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// Histogram is a symbol histogram in ascending symbol order: Symbols[i]
// occurred Counts[i] > 0 times. Every table is built from this one form;
// the order is what breaks ties between equal counts, so it is part of the
// stream format.
type Histogram struct {
	Symbols []int32
	Counts  []uint64
}

// Len returns the number of distinct symbols.
func (h Histogram) Len() int { return len(h.Symbols) }

// scratch is the working memory of one table construction or one Decode.
// It is held between a Get and a Put inside one call and nothing returned
// to a caller points into it.
type scratch struct {
	keys, keys2 []uint64 // radix sort keys and their ping-pong buffer
	idx, idx2   []int32  // what each key belongs to, permuted with it
	inner       []uint64 // weights of the internal nodes, in creation order
	node        []int32  // parent of each tree node, then its depth
	lens        []uint8  // code length per symbol, symbols ascending
	cn          canon    // the canonical code of lens
	syms        []int32  // Decode: symbols in canonical order
	table       []uint32 // Decode: prefix lookup table
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sortKeys sorts sc.keys ascending and permutes sc.idx with it: an LSD radix
// sort over the bytes any key uses. It is stable: equal keys keep the order
// they came in.
func (sc *scratch) sortKeys() {
	n := len(sc.keys)
	sc.keys2, sc.idx2 = grow(sc.keys2, n), grow(sc.idx2, n)
	var used uint64
	for _, k := range sc.keys {
		used |= k
	}
	for shift := 0; shift < bits.Len64(used); shift += 8 {
		var start [256]int
		for _, k := range sc.keys {
			start[byte(k>>shift)]++
		}
		pos := 0
		for d, c := range start {
			start[d] = pos
			pos += c
		}
		for i, k := range sc.keys {
			d := byte(k >> shift)
			sc.keys2[start[d]], sc.idx2[start[d]] = k, sc.idx[i]
			start[d]++
		}
		sc.keys, sc.keys2 = sc.keys2, sc.keys
		sc.idx, sc.idx2 = sc.idx2, sc.idx
	}
}

// codeLengths computes the Huffman code length of every symbol of h into
// sc.lens, parallel to h.Symbols. A one-symbol alphabet gets a 1-bit code.
//
// The leaves are ordered by (count, symbol) and merged through two queues:
// the sorted leaves and a FIFO of the internal nodes made so far, whose
// weights never decrease. Each step joins the two lightest heads, a leaf
// winning a tie against an internal node: the order a priority queue keyed
// by (weight, creation order) pops when the leaves are created first, in
// symbol order, which is how every stream written so far was built.
func (sc *scratch) codeLengths(h Histogram) []uint8 {
	n := h.Len()
	sc.lens = grow(sc.lens, n)
	if n == 0 {
		return sc.lens
	}
	sc.keys, sc.idx = grow(sc.keys, n), grow(sc.idx, n)
	copy(sc.keys, h.Counts)
	for i := range sc.idx {
		sc.idx[i] = int32(i)
	}
	sc.sortKeys()

	// nodes 0..n-1 are the sorted leaves, n..2n-2 the internal nodes in
	// creation order; the last one made is the root
	leaf := sc.keys
	sc.inner, sc.node = grow(sc.inner, n-1), grow(sc.node, 2*n-1)
	inner, node := sc.inner, sc.node
	li, ii := 0, 0 // heads of the leaf queue and of the internal FIFO
	for k := 0; k < n-1; k++ {
		var sum uint64
		for range 2 {
			if li < n && (ii == k || leaf[li] <= inner[ii]) {
				sum += leaf[li]
				node[li] = int32(n + k)
				li++
			} else {
				sum += inner[ii]
				node[n+ii] = int32(n + k)
				ii++
			}
		}
		inner[k] = sum
	}
	// a parent is always made after its children, so walking down from the
	// root every node finds its parent's depth already in place
	node[2*n-2] = 0
	for i := 2*n - 3; i >= 0; i-- {
		node[i] = node[node[i]] + 1
	}
	for i, at := range sc.idx {
		sc.lens[at] = uint8(min(max(node[i], 1), 255)) // a lone root still takes a bit
	}
	return sc.lens
}

// MeanCodeLength returns the average code length in bits per symbol that an
// optimal Huffman code achieves on the histogram — the quantity the Jin
// model estimates analytically from the code distribution.
func MeanCodeLength(h Histogram) float64 {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	lens := sc.codeLengths(h)
	var total, bits uint64
	for i, c := range h.Counts {
		total += c
		bits += c * uint64(lens[i])
	}
	if total == 0 {
		return 0
	}
	return float64(bits) / float64(total)
}

// canon describes a canonical code: codes are ordered by (length, symbol),
// so the symbols of one length hold consecutive codes from firstCode and
// consecutive positions in that order from firstIdx.
type canon struct {
	cnt, firstCode, firstIdx [maxCodeLen + 1]uint64
	maxLen                   uint
}

// set derives the canonical code of a set of code lengths. It rejects
// length sets that over-subscribe the code space, which is how a corrupt
// table manifests after the per-length parse checks.
func (c *canon) set(lens []uint8) error {
	*c = canon{}
	for _, l := range lens {
		if l > maxCodeLen {
			return fmt.Errorf("huffman: code length %d exceeds max %d", l, maxCodeLen)
		}
		c.cnt[l]++
	}
	var code, idx uint64
	for l := uint(1); l <= maxCodeLen; l++ {
		if c.cnt[l] == 0 {
			continue
		}
		code <<= l - c.maxLen
		if code+c.cnt[l] > 1<<l {
			return errors.New("huffman: code lengths over-subscribe the code space")
		}
		c.firstCode[l], c.firstIdx[l] = code, idx
		code += c.cnt[l]
		idx += c.cnt[l]
		c.maxLen = l
	}
	return nil
}

// packed dense-table entry: code in the high bits, length in the low 6.
// Zero means "symbol absent" (length 0 is never a valid code).
type packedCode = uint64

func packCode(code uint64, length uint) packedCode { return code<<6 | uint64(length) }

// denseMax bounds the span of the dense windows — the histogram's counters
// and the encoder's table (2^20 entries = 8 MiB, transient). Both start at
// the smallest symbol and end at the largest one inside the cap, so they
// cover exactly the clustered bulk; symbols beyond — the sz3 outlier
// sentinel and nothing else, in practice — go to a short sorted far list.
const denseMax = 1 << 20

// Encoder holds a code table built from a histogram.
type Encoder struct {
	header   []byte // u32 symbol count, then (i32 symbol, u8 length) in canonical order
	base     int32  // first symbol covered by dense
	dense    []packedCode
	farSyms  []int32 // symbols above the dense window, ascending
	farCodes []packedCode
	bits     uint64 // payload size of the histogram the table was built from
}

// NewEncoder builds an encoder for the histogram of the symbols to encode.
func NewEncoder(h Histogram) (*Encoder, error) {
	sc := scratchPool.Get().(*scratch)
	e, err := sc.newEncoder(h)
	scratchPool.Put(sc)
	return e, err
}

func (sc *scratch) newEncoder(h Histogram) (*Encoder, error) {
	lens, cn := sc.codeLengths(h), &sc.cn
	if err := cn.set(lens); err != nil {
		return nil, err
	}
	n := h.Len()
	e := &Encoder{header: make([]byte, 4+5*n)}
	binary.LittleEndian.PutUint32(e.header, uint32(n))
	if n == 0 {
		return e, nil
	}
	e.base = h.Symbols[0]
	near := n // symbols inside the dense window
	for int64(h.Symbols[near-1])-int64(e.base) >= denseMax {
		near--
	}
	e.dense = make([]packedCode, int64(h.Symbols[near-1])-int64(e.base)+1)
	e.farSyms, e.farCodes = slices.Clone(h.Symbols[near:]), make([]packedCode, n-near)
	// counting sort by length over the ascending symbols: each takes the
	// next canonical position, and with it the next code, of its length
	next := cn.firstIdx
	for i, s := range h.Symbols {
		l := lens[i]
		pos := next[l]
		next[l]++
		rec := e.header[4+5*pos:]
		binary.LittleEndian.PutUint32(rec, uint32(s))
		rec[4] = l
		e.bits += h.Counts[i] * uint64(l)
		p := packCode(cn.firstCode[l]+pos-cn.firstIdx[l], uint(l))
		if i < near {
			e.dense[int64(s)-int64(e.base)] = p
		} else {
			e.farCodes[i-near] = p
		}
	}
	return e, nil
}

// lookup returns the packed (code, length) entry for s, or ok=false when
// the symbol has no code.
func (e *Encoder) lookup(s int32) (packedCode, bool) {
	if idx := int64(s) - int64(e.base); idx >= 0 && idx < int64(len(e.dense)) {
		p := e.dense[idx]
		return p, p != 0
	}
	if i, ok := slices.BinarySearch(e.farSyms, s); ok {
		return e.farCodes[i], true
	}
	return 0, false
}

// Encode serializes the code table and payload for data into one buffer.
//
// Layout: u32 symbolCount, then per symbol (i32 symbol, u8 length) in
// canonical order, then u64 payload element count, then u64 payload byte
// length, then the bit stream.
func (e *Encoder) Encode(data []int32) ([]byte, error) {
	// the payload is written in place behind the header and the two
	// counts, into room for the histogram's payload
	head := len(e.header) + 16
	out := make([]byte, head, head+int((e.bits+7)/8))
	copy(out, e.header)
	w := bitstream.NewWriter(out)
	for _, s := range data {
		p, ok := e.lookup(s)
		if !ok {
			return nil, fmt.Errorf("huffman: symbol %d not in code table", s)
		}
		w.WriteBits(p>>6, uint(p&63))
	}
	out = w.Bytes()
	binary.LittleEndian.PutUint64(out[head-16:], uint64(len(data)))
	binary.LittleEndian.PutUint64(out[head-8:], uint64(len(out)-head))
	return out, nil
}

// Encode is a convenience that histograms data, builds the table, and
// encodes in one call. An empty stream is symbolCount=0, elementCount=0,
// payloadLen=0.
func Encode(data []int32) ([]byte, error) {
	e, err := NewEncoder(HistogramInt32(data))
	if err != nil {
		return nil, err
	}
	return e.Encode(data)
}

// denseHistPool recycles the dense counting windows of HistogramInt32;
// they go back zeroed over their whole capacity.
var denseHistPool = sync.Pool{New: func() any { return []uint64(nil) }}

// extremes returns the smallest symbol of data and the largest one below
// limit.
func extremes(data []int32, limit int64) (lo, hi int32) {
	lo, hi = data[0], math.MinInt32
	for _, s := range data {
		lo = min(lo, s)
		if s > hi && int64(s) < limit {
			hi = s
		}
	}
	return lo, hi
}

// HistogramInt32 counts symbol occurrences using a dense window array for
// the clustered bulk of the alphabet and a sorted list for far outliers,
// with the window chosen from the data minimum.
func HistogramInt32(data []int32) Histogram {
	if len(data) == 0 {
		return Histogram{}
	}
	lo, hi := extremes(data, math.MaxInt64)
	span := int64(hi) - int64(lo) + 1
	if span > denseMax {
		// typically a far sentinel inflating an otherwise tight alphabet:
		// re-reduce for the largest symbol inside the capped window, so
		// the window stays small to zero and scan
		_, hi = extremes(data, int64(lo)+denseMax)
		span = int64(hi) - int64(lo) + 1
	}
	window := denseHistPool.Get().([]uint64)
	window = grow(window, int(span))
	var far []int32 // every occurrence of a symbol above the window
	for _, s := range data {
		if idx := int64(s) - int64(lo); idx < span {
			window[idx]++
		} else {
			far = append(far, s)
		}
	}
	slices.Sort(far)
	var rest Histogram
	for i, s := range far {
		if i == 0 || s != far[i-1] {
			rest.Symbols, rest.Counts = append(rest.Symbols, s), append(rest.Counts, 0)
		}
		rest.Counts[len(rest.Counts)-1]++
	}
	n := rest.Len()
	for _, c := range window {
		if c != 0 {
			n++
		}
	}
	out := Histogram{Symbols: make([]int32, 0, n), Counts: make([]uint64, 0, n)}
	for i, c := range window {
		if c != 0 {
			out.Symbols, out.Counts = append(out.Symbols, lo+int32(i)), append(out.Counts, c)
		}
	}
	clear(window)
	denseHistPool.Put(window)
	out.Symbols, out.Counts = append(out.Symbols, rest.Symbols...), append(out.Counts, rest.Counts...)
	return out
}

// decodeLookupBits sizes the decoder's prefix table: codes of at most this
// length resolve in one table probe (the overwhelming majority for real
// histograms); longer codes fall back to first-code arithmetic.
const decodeLookupBits = 12

// Decode parses a buffer produced by Encode and returns the symbol stream.
// The table may list its symbols in any order; a symbol listed twice, a
// zero or over-long length, and lengths that over-subscribe the code space
// are corrupt.
func Decode(buf []byte) ([]int32, error) { return DecodeInto(nil, buf) }

// DecodeInto is Decode writing the symbols over dst's backing array, which
// it grows only when the stream holds more than cap(dst) symbols; a caller
// that recycles its code buffer decodes without allocating it. The result
// is dst resliced (or its replacement) and nothing else aliases it.
func DecodeInto(dst []int32, buf []byte) ([]int32, error) {
	sc := scratchPool.Get().(*scratch)
	out, err := sc.decode(dst, buf)
	scratchPool.Put(sc)
	return out, err
}

func (sc *scratch) decode(dst []int32, buf []byte) ([]int32, error) {
	if len(buf) < 4 {
		return nil, ErrCorrupt
	}
	nsym := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if nsym < 0 || nsym > len(buf)/5 { // divided: nsym*5 wraps a 32-bit int
		return nil, ErrCorrupt
	}

	// order the table by symbol (biased, so the unsigned keys sort as the
	// signed symbols do): duplicates become neighbours, and the canonical
	// order below is again a counting sort by length
	table := buf[:5*nsym]
	buf = buf[5*nsym:]
	sc.keys, sc.idx = grow(sc.keys, nsym), grow(sc.idx, nsym)
	for i := range sc.keys {
		if l := table[5*i+4]; l == 0 || l > maxCodeLen {
			return nil, ErrCorrupt
		}
		sc.keys[i] = uint64(binary.LittleEndian.Uint32(table[5*i:]) ^ 1<<31)
		sc.idx[i] = int32(i)
	}
	sc.sortKeys()
	sc.lens = grow(sc.lens, nsym)
	for i, at := range sc.idx {
		if i > 0 && sc.keys[i] == sc.keys[i-1] {
			return nil, ErrCorrupt
		}
		sc.lens[i] = table[5*at+4]
	}

	if len(buf) < 16 {
		return nil, ErrCorrupt
	}
	count, payloadLen := binary.LittleEndian.Uint64(buf), binary.LittleEndian.Uint64(buf[8:])
	if uint64(len(buf)-16) < payloadLen {
		return nil, ErrCorrupt
	}
	payload := buf[16 : 16+payloadLen]

	if count == 0 {
		if dst == nil {
			return []int32{}, nil
		}
		return dst[:0], nil
	}
	if nsym == 0 {
		return nil, ErrCorrupt
	}

	// Rebuild canonical codes and the per-length decode tables.
	cn := &sc.cn
	if cn.set(sc.lens) != nil {
		return nil, ErrCorrupt
	}
	sc.syms = grow(sc.syms, nsym)
	symbols := sc.syms
	next := cn.firstIdx
	for i, l := range sc.lens {
		symbols[next[l]] = int32(uint32(sc.keys[i]) ^ 1<<31)
		next[l]++
	}
	maxLen, firstCode, firstIdx, cnt := cn.maxLen, &cn.firstCode, &cn.firstIdx, &cn.cnt

	// K-bit prefix table: entry packs (symbol index << 6 | code length)
	// for codes no longer than K bits; zero means "longer code".
	lb := min(int(maxLen), decodeLookupBits)
	sc.table = grow(sc.table, 1<<lb)
	lookup := sc.table
	clear(lookup)
	for l := 1; l <= lb; l++ {
		span := uint64(1) << (lb - l)
		for r := uint64(0); r < cnt[l]; r++ {
			base := (firstCode[l] + r) << (lb - l)
			entry := uint32(firstIdx[l]+r)<<6 | uint32(l)
			for j := uint64(0); j < span; j++ {
				lookup[base+j] = entry
			}
		}
	}

	// every symbol takes at least one bit: a count the payload cannot
	// hold is corrupt, which also bounds what count, read from an
	// untrusted header, can reserve
	if count > payloadLen*8 {
		return nil, ErrCorrupt
	}
	if uint64(cap(dst)) < count {
		dst = make([]int32, count)
	}
	return decodeSymbols(dst[:count], payload, lookup, symbols, lb, cn)
}

// decodeSymbols fills out with the symbols of payload, read through the
// prefix table lookup (lb bits wide) and, for longer codes, cn.
func decodeSymbols(out []int32, payload []byte, lookup []uint32, symbols []int32, lb int, cn *canon) ([]int32, error) {
	maxLen, firstCode, firstIdx, cnt := cn.maxLen, &cn.firstCode, &cn.firstIdx, &cn.cnt

	// manual MSB-first bit buffer: acc holds the next `nbits` of the
	// stream left-aligned at bit 63
	var acc uint64
	var nbits uint
	pos := 0
next:
	for i := range out {
		for nbits <= 56 && pos < len(payload) {
			acc |= uint64(payload[pos]) << (56 - nbits)
			nbits += 8
			pos++
		}
		if nbits == 0 {
			return nil, ErrCorrupt
		}
		if entry := lookup[acc>>(64-uint(lb))]; entry != 0 {
			l := uint(entry & 63)
			if l > nbits {
				return nil, ErrCorrupt
			}
			out[i] = symbols[entry>>6]
			acc <<= l
			nbits -= l
			continue
		}
		// long code: per-length canonical search above the table width
		for l := uint(lb) + 1; l <= maxLen; l++ {
			if cnt[l] == 0 {
				continue
			}
			if l > nbits {
				break
			}
			code := acc >> (64 - l)
			if diff := code - firstCode[l]; code >= firstCode[l] && diff < cnt[l] {
				out[i] = symbols[firstIdx[l]+diff]
				acc <<= l
				nbits -= l
				continue next
			}
		}
		return nil, ErrCorrupt
	}
	return out, nil
}
