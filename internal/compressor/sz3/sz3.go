package sz3

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/huffman"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// Option keys understood by the sz3 plugin.
const (
	// OptPredictor selects the prediction stage: "lorenzo" (default) or
	// "interp" ("sz3:predictor").
	OptPredictor = "sz3:predictor"
	// OptQuantBins sets the quantization bin budget ("sz3:quant_bins").
	OptQuantBins = "sz3:quant_bins"
)

const (
	magic          = "SZ3g"
	modeLorenzo    = 0
	modeInterp     = 1
	modeRegression = 2
	defaultAbs     = 1e-4
)

// DefaultBins is the default quantization bin budget ("sz3:quant_bins"),
// and the budget the stage models in internal/predictors assume.
const DefaultBins = 65536

// minBins and maxBins bound the bin budget SetOptions accepts and a
// stream's header may carry.
const minBins, maxBins = 4, 1 << 24

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("sz3: corrupt stream")

// Compressor is the sz3 plugin. The zero value is not ready; use New.
type Compressor struct {
	abs       float64
	bins      int
	predictor string
}

// kernel scratch pools: the codes and recon working buffers are sized by
// the input and fully overwritten by the prediction stage, so they recycle
// across compressions. sync.Pool hands each in-flight compression an
// exclusive buffer (the -race concurrency test pins this).
var (
	codesPool = sync.Pool{New: func() any { return []int32(nil) }}
	f64Pool   = sync.Pool{New: func() any { return []float64(nil) }}
)

// flatePool recycles DEFLATE writers: flate.NewWriter allocates and zeroes
// roughly a megabyte of match-finder state, which Reset reuses without
// changing the produced bytes.
var flatePool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil {
		panic(err) // DefaultCompression is always a valid level
	}
	return fw
}}

// decompScratch is one Decompress's recyclable working set: the DEFLATE
// reader (reset through flate.Resetter, which reuses its window and
// tables), the reader over the stream it inflates, and the body it
// inflates into. The codes come from codesPool, which Compress shares.
type decompScratch struct {
	src  bytes.Reader
	fr   io.ReadCloser
	body bytes.Buffer
}

var decompPool = sync.Pool{New: func() any { return new(decompScratch) }}

// maxPooledBody bounds the body a decompScratch keeps between calls: the
// pool holds it live, and the collector sizes the heap at twice what is
// live, so a larger body (a tight bound's, mostly codes) is allocated for
// its call alone, as every body was before the pool.
const maxPooledBody = 128 << 10

// inflate decompresses stream into sc.body and returns its bytes, which
// stay valid until release. want is the length the stream's header
// promises; a body the pool may keep is sized to it up front.
func (sc *decompScratch) inflate(stream []byte, want int) ([]byte, error) {
	sc.src.Reset(stream)
	if sc.fr == nil {
		sc.fr = flate.NewReader(&sc.src)
	} else if err := sc.fr.(flate.Resetter).Reset(&sc.src, nil); err != nil {
		return nil, err
	}
	sc.body.Reset()
	if want >= 0 && want <= maxPooledBody {
		sc.body.Grow(want + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	if _, err := sc.body.ReadFrom(sc.fr); err != nil {
		return nil, err
	}
	return sc.body.Bytes(), nil
}

// release returns sc to the pool, holding neither the caller's stream
// nor a body too large to keep.
func (sc *decompScratch) release() {
	sc.src.Reset(nil)
	if sc.body.Cap() > maxPooledBody+bytes.MinRead {
		sc.body = bytes.Buffer{}
	}
	decompPool.Put(sc)
}

func getCodesBuf(n int) []int32 {
	b := codesPool.Get().([]int32)
	if cap(b) < n {
		return make([]int32, n)
	}
	//lint:ignore pressiovet/poolescape ownership-transfer accessor: callers pair with putCodesBuf, matching the pool's Get/Put contract
	return b[:n]
}

func getF64Buf(n int) []float64 {
	b := f64Pool.Get().([]float64)
	if cap(b) < n {
		return make([]float64, n)
	}
	//lint:ignore pressiovet/poolescape ownership-transfer accessor: callers pair with putF64Buf, matching the pool's Get/Put contract
	return b[:n]
}

// New returns an sz3 compressor with default settings (abs=1e-4,
// 65536 bins, Lorenzo prediction).
func New() *Compressor {
	return &Compressor{abs: defaultAbs, bins: DefaultBins, predictor: "lorenzo"}
}

func init() {
	pressio.RegisterCompressor("sz3", func() pressio.Compressor { return New() })
}

// Name implements pressio.Compressor.
func (c *Compressor) Name() string { return "sz3" }

// SetOptions implements pressio.Compressor. Unknown keys are ignored.
func (c *Compressor) SetOptions(opts pressio.Options) error {
	if v, ok := opts.GetFloat(pressio.OptAbs); ok {
		if v <= 0 {
			return fmt.Errorf("sz3: %s must be positive, got %v", pressio.OptAbs, v)
		}
		c.abs = v
	}
	if v, ok := opts.GetInt(OptQuantBins); ok {
		if v < minBins || v > maxBins {
			return fmt.Errorf("sz3: %s out of range: %d", OptQuantBins, v)
		}
		c.bins = int(v)
	}
	if v, ok := opts.GetString(OptPredictor); ok {
		if v != "lorenzo" && v != "interp" && v != "regression" {
			return fmt.Errorf("sz3: unknown predictor %q", v)
		}
		c.predictor = v
	}
	return nil
}

// Options implements pressio.Compressor.
func (c *Compressor) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, c.abs)
	o.Set(OptQuantBins, int64(c.bins))
	o.Set(OptPredictor, c.predictor)
	return o
}

// Configuration implements pressio.Compressor.
func (c *Compressor) Configuration() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.CfgThreadSafe, false)
	o.Set(pressio.CfgStability, "stable")
	o.Set("sz3:stages", []string{"prediction", "quantization", "huffman", "lossless"})
	return o
}

func checkDType(t pressio.DType) error {
	if t != pressio.DTypeFloat32 && t != pressio.DTypeFloat64 {
		return fmt.Errorf("sz3: unsupported dtype %v", t)
	}
	return nil
}

// Compress implements pressio.Compressor.
func (c *Compressor) Compress(in *pressio.Data) (*pressio.Data, error) {
	if err := checkDType(in.DType()); err != nil {
		return nil, err
	}
	q := &Quantizer{Abs: c.abs, Bins: c.bins, DType: in.DType()}
	codes := getCodesBuf(in.Len())
	defer codesPool.Put(codes)
	var (
		outliers, coeffs []float64
		mode             byte
	)
	if in.DType() == pressio.DTypeFloat32 {
		mode, outliers, coeffs = predictQuantize(c.predictor, codes, in.Float32(), in.Dims(), q)
	} else {
		mode, outliers, coeffs = predictQuantize(c.predictor, codes, in.Float64(), in.Dims(), q)
	}

	coded, err := huffman.Encode(codes)
	if err != nil {
		return nil, err
	}

	// header
	var head bytes.Buffer
	head.WriteString(magic)
	head.WriteByte(byte(in.DType()))
	head.WriteByte(mode)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(c.abs))
	head.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(c.bins))
	head.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(in.Dims())))
	head.Write(scratch[:4])
	for _, d := range in.Dims() {
		binary.LittleEndian.PutUint64(scratch[:], uint64(d))
		head.Write(scratch[:])
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(outliers)))
	head.Write(scratch[:])
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(coeffs)))
	head.Write(scratch[:])

	// body: huffman stream, then outliers, then regression coefficients
	// (float32), DEFLATE-compressed together
	var body bytes.Buffer
	body.Grow(len(coded)/2 + 64)
	fw := flatePool.Get().(*flate.Writer)
	defer flatePool.Put(fw)
	fw.Reset(&body)
	if _, err := fw.Write(coded); err != nil {
		return nil, err
	}
	for _, v := range outliers {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		if _, err := fw.Write(scratch[:]); err != nil {
			return nil, err
		}
	}
	for _, v := range coeffs {
		binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(float32(v)))
		if _, err := fw.Write(scratch[:4]); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}

	binary.LittleEndian.PutUint64(scratch[:], uint64(len(coded)))
	head.Write(scratch[:])
	out := append(head.Bytes(), body.Bytes()...)
	return pressio.NewByte(out), nil
}

// predictQuantize runs the named prediction stage over vals into codes
// (len(vals), fully overwritten) and returns the stream's mode byte, its
// outliers and, for regression, its block coefficients.
func predictQuantize[T stats.Float](predictor string, codes []int32, vals []T, dims []int, q *Quantizer) (mode byte, outliers, coeffs []float64) {
	if predictor == "regression" {
		outliers, coeffs = PredictQuantizeRegression(codes, vals, dims, q)
		return modeRegression, outliers, coeffs
	}
	recon := getF64Buf(len(vals))
	defer f64Pool.Put(recon)
	if predictor == "interp" {
		return modeInterp, predictQuantizeInterp(codes, recon, vals, q), nil
	}
	return modeLorenzo, PredictQuantizeLorenzo(codes, recon, vals, dims, q), nil
}

// Decompress implements pressio.Compressor. out must be allocated with the
// original dtype and dims.
func (c *Compressor) Decompress(compressed *pressio.Data, out *pressio.Data) error {
	buf := compressed.Bytes()
	if len(buf) < len(magic)+2 || string(buf[:4]) != magic {
		return ErrCorrupt
	}
	buf = buf[4:]
	dtype := pressio.DType(buf[0])
	mode := buf[1]
	buf = buf[2:]
	if len(buf) < 8+4+4 {
		return ErrCorrupt
	}
	abs := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	// header values are checked before they become an int, which is 32
	// bits wide on some targets: bins against SetOptions' range, nd
	// against the bytes left, the dims in ReadDims
	rawBins := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	nd := uint64(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if rawBins < minBins || rawBins > maxBins || uint64(len(buf)) < nd*8+24 {
		return ErrCorrupt
	}
	bins := int(rawBins)
	dims, total, err := pressio.ReadDims(buf, int(nd))
	if err != nil {
		return fmt.Errorf("sz3: %w: %v", ErrCorrupt, err)
	}
	buf = buf[8*nd:]
	nout64 := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if len(buf) < 16 {
		return ErrCorrupt
	}
	ncoeff64 := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	coded64 := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	// each element is at most one outlier and the block regression's
	// coefficients are at most four an element, so a larger count is a
	// crafted header; then the body's length, at most 24·MaxElements
	// before the coded part, must fit an int
	if nout64 > uint64(total) || ncoeff64 > 4*uint64(total) {
		return ErrCorrupt
	}
	if fixed := 8*nout64 + 4*ncoeff64; fixed > math.MaxInt || coded64 > math.MaxInt-fixed {
		return ErrCorrupt
	}
	noutlier, ncoeff, codedLen := int(nout64), int(ncoeff64), int(coded64)
	want := codedLen + 8*noutlier + 4*ncoeff

	if out.DType() != dtype {
		return fmt.Errorf("sz3: output dtype %v does not match stream dtype %v", out.DType(), dtype)
	}
	if out.Len() != total {
		return fmt.Errorf("sz3: output has %d elements, stream has %d", out.Len(), total)
	}

	sc := decompPool.Get().(*decompScratch)
	defer sc.release()
	body, err := sc.inflate(buf, want)
	if err != nil {
		return fmt.Errorf("sz3: %w: %v", ErrCorrupt, err)
	}
	if len(body) != want {
		return ErrCorrupt
	}
	codesBuf := getCodesBuf(total)
	defer codesPool.Put(codesBuf)
	codes, err := huffman.DecodeInto(codesBuf, body[:codedLen])
	if err != nil {
		return fmt.Errorf("sz3: %w: %v", ErrCorrupt, err)
	}
	if len(codes) != total {
		return ErrCorrupt
	}
	sentinels := 0
	for _, code := range codes {
		if code == OutlierCode {
			sentinels++
		}
	}
	if sentinels != noutlier {
		return ErrCorrupt
	}
	outliers := make([]float64, noutlier)
	ob := body[codedLen:]
	for i := range outliers {
		outliers[i] = math.Float64frombits(binary.LittleEndian.Uint64(ob[8*i:]))
	}
	coeffs := make([]float64, ncoeff)
	cb := body[codedLen+8*noutlier:]
	for i := range coeffs {
		coeffs[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(cb[4*i:])))
	}

	if err := checkDType(dtype); err != nil {
		return err
	}
	if mode != modeInterp && mode != modeRegression && mode != modeLorenzo {
		return ErrCorrupt
	}
	q := &Quantizer{Abs: abs, Bins: bins, DType: dtype}
	out.Touch() // the reconstruction is written through the typed slice
	if dtype == pressio.DTypeFloat32 {
		return reconstruct(out.Float32(), mode, codes, outliers, coeffs, dims, q)
	}
	return reconstruct(out.Float64(), mode, codes, outliers, coeffs, dims, q)
}

// reconstruct inverts the prediction stage mode names into out.
func reconstruct[T stats.Float](out []T, mode byte, codes []int32, outliers, coeffs []float64, dims []int, q *Quantizer) error {
	switch mode {
	case modeInterp:
		reconstructInterp(out, codes, outliers, q)
	case modeRegression:
		return reconstructRegression(out, codes, outliers, coeffs, dims, q)
	default:
		reconstructLorenzo(out, codes, outliers, dims, q)
	}
	return nil
}
