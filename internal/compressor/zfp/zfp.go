// Package zfp implements a pure-Go transform-based error-bounded lossy
// compressor in the style of ZFP's fixed-accuracy mode: the domain is
// partitioned into 4^d blocks, each block is converted to a block-floating-
// point integer representation under a per-block common exponent, an
// exactly invertible integer Haar lifting decorrelates each dimension,
// coefficients are reordered by total degree and converted to negabinary,
// and bit planes are coded MSB-first with ZFP's group-testing embedded
// coder down to a tolerance-derived cutoff plane.
//
// Compared to the reference C implementation the decorrelating transform
// is the (weaker) Haar lifting rather than ZFP's near-orthogonal lifting,
// but the codec family, the tolerance→bitrate response, and the large
// speed advantage over prediction-based compressors (paper §6 baseline:
// ZFP ≈ 5× faster than SZ3) are preserved, which is what the prediction
// schemes under study observe.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/pressio"
	"repro/internal/stats"
)

const (
	magic    = "ZFPg"
	blockLen = 4  // samples per dimension per block
	fracBits = 30 // fractional bits of the block-floating-point format
	intPrec  = 44 // coded bit planes (coefficient dynamic range)
	// guardBits absorbs the error amplification of the inverse transform
	// so the absolute tolerance holds for every element.
	guardBits = 9
	emaxBias  = 16384
	emaxBits  = 16
)

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("zfp: corrupt stream")

// Compressor is the zfp plugin. Use New.
type Compressor struct {
	tol float64
}

// New returns a zfp compressor with the default tolerance 1e-4.
func New() *Compressor { return &Compressor{tol: 1e-4} }

func init() {
	pressio.RegisterCompressor("zfp", func() pressio.Compressor { return New() })
}

// Name implements pressio.Compressor.
func (c *Compressor) Name() string { return "zfp" }

// SetOptions implements pressio.Compressor; it honours pressio:abs.
func (c *Compressor) SetOptions(opts pressio.Options) error {
	if v, ok := opts.GetFloat(pressio.OptAbs); ok {
		if v <= 0 {
			return fmt.Errorf("zfp: %s must be positive, got %v", pressio.OptAbs, v)
		}
		c.tol = v
	}
	return nil
}

// Options implements pressio.Compressor.
func (c *Compressor) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, c.tol)
	return o
}

// Configuration implements pressio.Compressor.
func (c *Compressor) Configuration() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.CfgThreadSafe, false)
	o.Set(pressio.CfgStability, "stable")
	o.Set("zfp:stages", []string{"blocking", "block_float", "transform", "bitplane_coding"})
	return o
}

// effectiveDims folds shapes with more than 3 dimensions into 3 (leading
// dimensions are merged), matching ZFP's 1-3D execution model.
func effectiveDims(dims []int) []int {
	if len(dims) <= 3 {
		out := make([]int, len(dims))
		copy(out, dims)
		return out
	}
	lead := 1
	for _, d := range dims[:len(dims)-2] {
		lead *= d
	}
	return []int{lead, dims[len(dims)-2], dims[len(dims)-1]}
}

// degreeOrder returns the traversal order of block coefficients sorted by
// total degree (sum of per-dimension frequencies), the reordering ZFP
// applies so low-frequency coefficients come first.
func degreeOrder(nd int) []int {
	size := 1
	for i := 0; i < nd; i++ {
		size *= blockLen
	}
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	degree := func(i int) int {
		d := 0
		for k := 0; k < nd; k++ {
			d += i % blockLen
			i /= blockLen
		}
		return d
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := degree(idx[a]), degree(idx[b])
		if da != db {
			return da < db
		}
		return idx[a] < idx[b]
	})
	return idx
}

var degreeOrders = [4][]int{nil, degreeOrder(1), degreeOrder(2), degreeOrder(3)}

// fwdLift applies one level of the integer S-transform (Haar lifting) to
// the pair (a, b): exactly invertible by invLift.
func fwdLift(a, b int64) (low, high int64) {
	high = a - b
	low = b + (high >> 1) // == floor((a+b)/2)
	return low, high
}

// invLift exactly inverts fwdLift.
func invLift(low, high int64) (a, b int64) {
	b = low - (high >> 1)
	a = b + high
	return a, b
}

// fwdXform4 transforms 4 samples in place (two Haar levels) at stride s.
func fwdXform4(p []int64, off, s int) {
	l0, h0 := fwdLift(p[off], p[off+s])
	l1, h1 := fwdLift(p[off+2*s], p[off+3*s])
	ll, lh := fwdLift(l0, l1)
	p[off] = ll
	p[off+s] = lh
	p[off+2*s] = h0
	p[off+3*s] = h1
}

// invXform4 inverts fwdXform4.
func invXform4(p []int64, off, s int) {
	ll, lh := p[off], p[off+s]
	h0, h1 := p[off+2*s], p[off+3*s]
	l0, l1 := invLift(ll, lh)
	a0, b0 := invLift(l0, h0)
	a1, b1 := invLift(l1, h1)
	p[off] = a0
	p[off+s] = b0
	p[off+2*s] = a1
	p[off+3*s] = b1
}

// fwdXform applies the transform along every dimension of a block with nd
// dimensions (block has blockLen^nd samples, C order), fastest-varying
// dimension first.
func fwdXform(p []int64, nd int) {
	for _, pass := range passesByND[nd] {
		applyPass(p, pass, fwdXform4)
	}
}

// invXform inverts fwdXform by undoing the dimension passes in reverse
// order (separable transforms only invert when the pass order reverses).
func invXform(p []int64, nd int) {
	passes := passesByND[nd]
	for i := len(passes) - 1; i >= 0; i-- {
		applyPass(p, passes[i], invXform4)
	}
}

// xformPass describes one dimension sweep: the stride of the transformed
// axis; offsets enumerate every 4-sample line of that axis.
type xformPass struct {
	stride  int
	offsets []int
}

func xformPasses(nd int) []xformPass {
	switch nd {
	case 1:
		return []xformPass{{stride: 1, offsets: []int{0}}}
	case 2:
		rows := make([]int, blockLen)
		cols := make([]int, blockLen)
		for i := 0; i < blockLen; i++ {
			rows[i] = i * blockLen
			cols[i] = i
		}
		return []xformPass{{stride: 1, offsets: rows}, {stride: blockLen, offsets: cols}}
	case 3:
		const b = blockLen
		var d2, d1, d0 []int
		for i := 0; i < b*b; i++ {
			d2 = append(d2, i*b)
		}
		for i := 0; i < b; i++ {
			for k := 0; k < b; k++ {
				d1 = append(d1, i*b*b+k)
				d0 = append(d0, i*b+k)
			}
		}
		return []xformPass{{stride: 1, offsets: d2}, {stride: b, offsets: d1}, {stride: b * b, offsets: d0}}
	}
	return nil
}

var passesByND = [4][]xformPass{nil, xformPasses(1), xformPasses(2), xformPasses(3)}

func applyPass(p []int64, pass xformPass, f func([]int64, int, int)) {
	for _, off := range pass.offsets {
		f(p, off, pass.stride)
	}
}

const nbMask = 0xaaaaaaaaaaaaaaaa

// toNegabinary maps a two's-complement integer to its negabinary code,
// which orders magnitudes so MSB-first bit-plane truncation is graceful.
func toNegabinary(x int64) uint64 {
	return (uint64(x) + nbMask) ^ nbMask
}

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint64) int64 {
	return int64((u ^ nbMask) - nbMask)
}

func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// encodePlanes writes the bit planes of the negabinary coefficients u
// (already in degree order) from plane intPrec-1 down to kmin using ZFP's
// group-testing embedded coder.
func encodePlanes(w *bitstream.Writer, u []uint64, kmin int) {
	size := len(u)
	n := 0
	// Transpose the coefficients into bit planes once: cheaper than
	// re-gathering each plane because only set bits cost work.
	var planes [intPrec]uint64
	for i := 0; i < size; i++ {
		v := u[i]
		for v != 0 {
			k := bits.TrailingZeros64(v)
			if k >= intPrec {
				break // beyond coded precision: dropped, as in the plane loop
			}
			planes[k] |= uint64(1) << uint(i)
			v &= v - 1
		}
	}
	for k := intPrec - 1; k >= kmin; k-- {
		x := planes[k]
		if x == 0 {
			// empty plane: n verbatim zeros plus a zero group test —
			// identical bits to the general path, without the scan
			w.WriteBits(0, uint(n))
			if n < size {
				w.WriteBit(0)
			}
			continue
		}
		// verbatim bits for the tested prefix
		w.WriteBits(x&lowMask(n), uint(n))
		x >>= uint(n)
		// group-tested unary coding for the rest; runs of zeros batch
		// into single WriteBits calls (same bits as the bit-at-a-time
		// loop: group flag, the zeros, then the terminating one — which
		// is implicit when the run reaches the last position)
		for n < size {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			z := bits.TrailingZeros64(x)
			if rem := size - 1 - n; z >= rem {
				w.WriteBits(0, uint(rem))
				n = size
				break
			}
			w.WriteBits(1, uint(z)+1)
			x >>= uint(z) + 1
			n += z + 1
		}
	}
}

// decodePlanes reads what encodePlanes wrote into u (which the caller has
// zeroed; len(u) is the block size).
func decodePlanes(r *bitstream.Reader, u []uint64, kmin int) error {
	size := len(u)
	n := 0
	for k := intPrec - 1; k >= kmin; k-- {
		x, err := r.ReadBits(uint(n))
		if err != nil {
			return err
		}
		for n < size {
			group, err := r.ReadBit()
			if err != nil {
				return err
			}
			if group == 0 {
				break
			}
			z, err := r.ReadZeroRun(size - 1 - n)
			if err != nil {
				return err
			}
			n += z
			x |= uint64(1) << uint(n)
			n++
		}
		for x != 0 {
			i := bits.TrailingZeros64(x)
			u[i] |= uint64(1) << uint(k)
			x &= x - 1
		}
	}
	return nil
}

// kminFor derives the cutoff plane from the tolerance and block exponent:
// dropped planes contribute error below 2^(kmin+emax-fracBits+guardBits),
// which is kept at or below tol.
func kminFor(tol float64, emax int) int {
	if tol <= 0 {
		return 0
	}
	logTol := int(math.Floor(math.Log2(tol)))
	k := logTol - emax + fracBits - guardBits
	if k < 0 {
		k = 0
	}
	if k > intPrec {
		k = intPrec
	}
	return k
}

// Compress implements pressio.Compressor.
func (c *Compressor) Compress(in *pressio.Data) (*pressio.Data, error) {
	switch in.DType() {
	case pressio.DTypeFloat32, pressio.DTypeFloat64:
	default:
		return nil, fmt.Errorf("zfp: unsupported dtype %v", in.DType())
	}
	dims := effectiveDims(in.Dims())
	if len(dims) == 0 || in.Len() == 0 {
		return nil, fmt.Errorf("zfp: empty input")
	}
	nd := len(dims)

	// header, with room behind it for the input's size: a dense field's
	// stream is most of that
	out := make([]byte, 0, in.ByteSize()+64)
	out = append(out, magic...)
	out = append(out, byte(in.DType()), byte(len(in.Dims())))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.tol))
	for _, d := range in.Dims() {
		out = binary.LittleEndian.AppendUint64(out, uint64(d))
	}

	// blocks encode one after another, in traversal order, into one
	// stream written in place behind its length
	lenAt := len(out)
	out = binary.LittleEndian.AppendUint64(out, 0)
	w := bitstream.NewWriter(out)
	sc := getScratch(nd)
	sc.setDims(dims)
	if in.DType() == pressio.DTypeFloat32 {
		encodeBlocks(w, sc, in.Float32(), dims, c.tol)
	} else {
		encodeBlocks(w, sc, in.Float64(), dims, c.tol)
	}
	putScratch(sc)
	out = w.Bytes()
	binary.LittleEndian.PutUint64(out[lenAt:], uint64(len(out)-lenAt-8))
	return pressio.NewByte(out), nil
}

// encodeBlocks encodes every block of vals, in traversal order.
func encodeBlocks[T stats.Float](w *bitstream.Writer, sc *scratch, vals []T, dims []int, tol float64) {
	forEachBlock(dims, func(origin []int) {
		gather(sc, vals, dims, origin)
		encodeBlockF(w, sc, len(dims), tol)
	})
}

// decodeBlocks decodes every block of the stream into out, in traversal
// order.
func decodeBlocks[T stats.Float](r *bitstream.Reader, sc *scratch, out []T, dims []int, tol float64) error {
	var err error
	forEachBlock(dims, func(origin []int) {
		if err == nil {
			if err = decodeBlockF(r, sc, len(dims), tol); err == nil {
				scatter(sc, out, dims, origin)
			}
		}
	})
	return err
}

// scratchPools recycles block scratch across (de)compressions, indexed by
// nd.
var scratchPools [4]sync.Pool

func getScratch(nd int) *scratch {
	if sc, ok := scratchPools[nd].Get().(*scratch); ok {
		//lint:ignore pressiovet/poolescape ownership-transfer accessor: callers pair with putScratch, matching the pool's Get/Put contract
		return sc
	}
	return newScratch(nd)
}

func putScratch(sc *scratch) { scratchPools[len(sc.str)].Put(sc) }

// scratch holds the per-block working buffers so the block loop does not
// allocate; one scratch serves one (de)compression pass.
type scratch struct {
	block  []float64
	q      []int64
	u      []uint64
	locals [][]int // per block position, local coordinates (nd entries)
	str    []int   // element strides of the data dims, set by setDims
	offs   []int   // flat offset of each block position for interior blocks
}

func newScratch(nd int) *scratch {
	size := 1
	for i := 0; i < nd; i++ {
		size *= blockLen
	}
	locals := make([][]int, size)
	for bi := 0; bi < size; bi++ {
		c := make([]int, nd)
		t := bi
		for d := nd - 1; d >= 0; d-- {
			c[d] = t % blockLen
			t /= blockLen
		}
		locals[bi] = c
	}
	return &scratch{
		block:  make([]float64, size),
		q:      make([]int64, size),
		u:      make([]uint64, size),
		locals: locals,
		str:    make([]int, nd),
		offs:   make([]int, size),
	}
}

// setDims precomputes the element strides of the data shape and the flat
// offset of every block position, which interior blocks use to skip the
// per-element coordinate arithmetic.
func (sc *scratch) setDims(dims []int) {
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		sc.str[i] = acc
		acc *= dims[i]
	}
	for bi, local := range sc.locals {
		off := 0
		for d := range local {
			off += local[d] * sc.str[d]
		}
		sc.offs[bi] = off
	}
}

// interiorBase returns the flat index of origin and whether the block lies
// fully inside dims (no edge replication or clipping needed).
func (sc *scratch) interiorBase(dims, origin []int) (int, bool) {
	base := 0
	for d := range origin {
		if origin[d]+blockLen > dims[d] {
			return 0, false
		}
		base += origin[d] * sc.str[d]
	}
	return base, true
}

// gather extracts the tile at origin into sc.block as float64(x),
// replicating edge samples for partial blocks.
func gather[T stats.Float](sc *scratch, vals []T, dims []int, origin []int) {
	if base, ok := sc.interiorBase(dims, origin); ok {
		for bi, off := range sc.offs {
			sc.block[bi] = float64(vals[base+off])
		}
		return
	}
	nd := len(dims)
	str := sc.str
	for bi, local := range sc.locals {
		idx := 0
		for d := 0; d < nd; d++ {
			c := origin[d] + local[d]
			if c >= dims[d] {
				c = dims[d] - 1 // replicate edge
			}
			idx += c * str[d]
		}
		sc.block[bi] = float64(vals[idx])
	}
}

// scatter writes the valid region of sc.block back into out, each value
// rounded to T.
func scatter[T stats.Float](sc *scratch, out []T, dims []int, origin []int) {
	if base, ok := sc.interiorBase(dims, origin); ok {
		for bi, off := range sc.offs {
			out[base+off] = T(sc.block[bi])
		}
		return
	}
	nd := len(dims)
	str := sc.str
	for bi, local := range sc.locals {
		idx := 0
		valid := true
		for d := 0; d < nd; d++ {
			c := origin[d] + local[d]
			if c >= dims[d] {
				valid = false
				break
			}
			idx += c * str[d]
		}
		if valid {
			out[idx] = T(sc.block[bi])
		}
	}
}

// encodeBlockF encodes the block currently held in sc.block.
func encodeBlockF(w *bitstream.Writer, sc *scratch, nd int, tol float64) {
	maxAbs := 0.0
	for _, v := range sc.block {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs <= tol/2 || maxAbs == 0 {
		// empty block: reconstructing zero satisfies the bound
		w.WriteBit(0)
		return
	}
	w.WriteBit(1)
	_, emax := math.Frexp(maxAbs) // maxAbs < 2^emax
	w.WriteBits(uint64(emax+emaxBias), emaxBits)

	scale := math.Ldexp(1, fracBits-emax)
	q := sc.q
	for i, v := range sc.block {
		q[i] = int64(math.Round(v * scale))
	}
	fwdXform(q, nd)
	order := degreeOrders[nd]
	u := sc.u
	for i, p := range order {
		u[i] = toNegabinary(q[p])
	}
	encodePlanes(w, u, kminFor(tol, emax))
}

// decodeBlockF decodes one block into sc.block.
func decodeBlockF(r *bitstream.Reader, sc *scratch, nd int, tol float64) error {
	out := sc.block
	flag, err := r.ReadBit()
	if err != nil {
		return err
	}
	if flag == 0 {
		for i := range out {
			out[i] = 0
		}
		return nil
	}
	e, err := r.ReadBits(emaxBits)
	if err != nil {
		return err
	}
	emax := int(e) - emaxBias
	u := sc.u
	for i := range u {
		u[i] = 0
	}
	if err := decodePlanes(r, u, kminFor(tol, emax)); err != nil {
		return err
	}
	order := degreeOrders[nd]
	q := sc.q
	for i, p := range order {
		q[p] = fromNegabinary(u[i])
	}
	invXform(q, nd)
	scale := math.Ldexp(1, emax-fracBits)
	for i, v := range q {
		out[i] = float64(v) * scale
	}
	return nil
}

// forEachBlock invokes f with the origin of every block tile of dims.
func forEachBlock(dims []int, f func(origin []int)) {
	nd := len(dims)
	origin := make([]int, nd)
	for {
		f(origin)
		d := nd - 1
		for ; d >= 0; d-- {
			origin[d] += blockLen
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

// Decompress implements pressio.Compressor.
func (c *Compressor) Decompress(compressed *pressio.Data, out *pressio.Data) error {
	buf := compressed.Bytes()
	if len(buf) < 4+2+8 || string(buf[:4]) != magic {
		return ErrCorrupt
	}
	buf = buf[4:]
	dtype := pressio.DType(buf[0])
	nd := int(buf[1])
	if dtype != pressio.DTypeFloat32 && dtype != pressio.DTypeFloat64 {
		return ErrCorrupt
	}
	buf = buf[2:]
	tol := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	if len(buf) < nd*8+8 {
		return ErrCorrupt
	}
	origDims := make([]int, nd)
	for i := range origDims {
		origDims[i] = int(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	total, err := pressio.CheckDims(origDims)
	if err != nil {
		return fmt.Errorf("zfp: %w: %v", ErrCorrupt, err)
	}
	payloadLen := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if uint64(len(buf)) < payloadLen {
		return ErrCorrupt
	}
	if out.DType() != dtype {
		return fmt.Errorf("zfp: output dtype %v does not match stream dtype %v", out.DType(), dtype)
	}
	if out.Len() != total {
		return fmt.Errorf("zfp: output has %d elements, stream has %d", out.Len(), total)
	}

	dims := effectiveDims(origDims)
	r := bitstream.NewReader(buf[:payloadLen])
	sc := getScratch(len(dims))
	sc.setDims(dims)
	out.Touch() // the blocks are written through the typed slice
	if dtype == pressio.DTypeFloat32 {
		err = decodeBlocks(r, sc, out.Float32(), dims, tol)
	} else {
		err = decodeBlocks(r, sc, out.Float64(), dims, tol)
	}
	putScratch(sc)
	if err != nil {
		return fmt.Errorf("zfp: %w: %v", ErrCorrupt, err)
	}
	return nil
}
