// Package szx implements a pure-Go ultra-fast error-bounded lossy
// compressor in the style of SZx: the data is split into fixed-size 1-D
// blocks; a block whose value range fits within twice the error bound is
// coded as a single "constant" mean value, and all other blocks store
// their samples verbatim at storage precision. This trades compression
// ratio for very high throughput — the corner of the design space the
// Khan 2023 (SECRE) scheme extends to.
package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/pressio"
	"repro/internal/stats"
)

// OptBlockSize sets the 1-D block length ("szx:block_size").
const OptBlockSize = "szx:block_size"

const (
	magic            = "SZXg"
	defaultBlockSize = 128
)

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("szx: corrupt stream")

// Compressor is the szx plugin. Use New.
type Compressor struct {
	abs       float64
	blockSize int
}

// New returns an szx compressor with defaults (abs=1e-4, 128-sample blocks).
func New() *Compressor { return &Compressor{abs: 1e-4, blockSize: defaultBlockSize} }

func init() {
	pressio.RegisterCompressor("szx", func() pressio.Compressor { return New() })
}

// Name implements pressio.Compressor.
func (c *Compressor) Name() string { return "szx" }

// SetOptions implements pressio.Compressor.
func (c *Compressor) SetOptions(opts pressio.Options) error {
	if v, ok := opts.GetFloat(pressio.OptAbs); ok {
		if v <= 0 {
			return fmt.Errorf("szx: %s must be positive, got %v", pressio.OptAbs, v)
		}
		c.abs = v
	}
	if v, ok := opts.GetInt(OptBlockSize); ok {
		if v < 2 || v > 1<<20 {
			return fmt.Errorf("szx: %s out of range: %d", OptBlockSize, v)
		}
		c.blockSize = int(v)
	}
	return nil
}

// Options implements pressio.Compressor.
func (c *Compressor) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, c.abs)
	o.Set(OptBlockSize, int64(c.blockSize))
	return o
}

// Configuration implements pressio.Compressor.
func (c *Compressor) Configuration() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.CfgThreadSafe, false)
	o.Set(pressio.CfgStability, "stable")
	o.Set("szx:stages", []string{"blocking", "constant_detection"})
	return o
}

// Compress implements pressio.Compressor.
func (c *Compressor) Compress(in *pressio.Data) (*pressio.Data, error) {
	switch in.DType() {
	case pressio.DTypeFloat32, pressio.DTypeFloat64:
	default:
		return nil, fmt.Errorf("szx: unsupported dtype %v", in.DType())
	}
	n := in.Len()
	nblocks := (n + c.blockSize - 1) / c.blockSize

	elem := in.DType().Size()
	// room for every block verbatim (a short last block may store a
	// constant wider than itself), so the appends below never move out
	out := make([]byte, 0, 4+2+8+4+8*len(in.Dims())+(nblocks+7)/8+n*elem+8)
	out = append(out, magic...)
	out = append(out, byte(in.DType()), byte(len(in.Dims())))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.abs))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.blockSize))
	for _, d := range in.Dims() {
		out = binary.LittleEndian.AppendUint64(out, uint64(d))
	}

	// one pass over the blocks: a block's flag bit is set in the bitset
	// reserved ahead of the payload, and its bytes appended behind it
	if in.DType() == pressio.DTypeFloat32 {
		out = appendBlocks(out, in.Float32(), c.blockSize, c.abs, in.DType())
	} else {
		out = appendBlocks(out, in.Float64(), c.blockSize, c.abs, in.DType())
	}
	return pressio.NewByte(out), nil
}

// appendBlocks classifies each block of vals and appends the flag bitset
// and the payload to out: a constant block is its midpoint as a float64,
// any other its elements verbatim at t's precision.
func appendBlocks[T stats.Float](out []byte, vals []T, blockSize int, abs float64, t pressio.DType) []byte {
	n := len(vals)
	nblocks := (n + blockSize - 1) / blockSize
	flagsAt := len(out)
	out = append(out, make([]byte, (nblocks+7)/8)...)
	for b := range nblocks {
		block := vals[b*blockSize : min((b+1)*blockSize, n)]
		lo, hi := block[0], block[0]
		for _, v := range block[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		mn, mx := float64(lo), float64(hi)
		mid := mn + (mx-mn)/2
		switch {
		case mx-mn <= 2*abs && withinStorage(mid, mn, mx, abs, t):
			out[flagsAt+b/8] |= 1 << (b % 8)
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(mid))
		case t == pressio.DTypeFloat32:
			for _, v := range block {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
			}
		default:
			for _, v := range block {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(v)))
			}
		}
	}
	return out
}

// withinStorage checks the constant-block representative still satisfies
// the bound after rounding to storage precision.
func withinStorage(mid, mn, mx, abs float64, t pressio.DType) bool {
	if t == pressio.DTypeFloat32 {
		mid = float64(float32(mid))
	}
	return math.Abs(mid-mn) <= abs && math.Abs(mid-mx) <= abs
}

// Decompress implements pressio.Compressor.
func (c *Compressor) Decompress(compressed *pressio.Data, out *pressio.Data) error {
	buf := compressed.Bytes()
	if len(buf) < 4+2+8+4 || string(buf[:4]) != magic {
		return ErrCorrupt
	}
	buf = buf[4:]
	dtype := pressio.DType(buf[0])
	nd := int(buf[1])
	if dtype != pressio.DTypeFloat32 && dtype != pressio.DTypeFloat64 {
		return ErrCorrupt
	}
	buf = buf[2+8:] // skip abs: not needed to decode
	blockSize := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if blockSize < 2 || len(buf) < nd*8 {
		return ErrCorrupt
	}
	dims := make([]int, nd)
	for i := 0; i < nd; i++ {
		dims[i] = int(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	total, err := pressio.CheckDims(dims)
	if err != nil {
		return fmt.Errorf("szx: %w: %v", ErrCorrupt, err)
	}
	if out.DType() != dtype {
		return fmt.Errorf("szx: output dtype %v does not match stream dtype %v", out.DType(), dtype)
	}
	if out.Len() != total {
		return fmt.Errorf("szx: output has %d elements, stream has %d", out.Len(), total)
	}
	nblocks := (total + blockSize - 1) / blockSize
	flagLen := (nblocks + 7) / 8
	if len(buf) < flagLen {
		return ErrCorrupt
	}
	flags := buf[:flagLen]
	payload := buf[flagLen:]

	elem := 8
	if dtype == pressio.DTypeFloat32 {
		elem = 4
	}
	// decode straight into the typed output storage (verbatim blocks are
	// a byte-level copy of the payload), with one version bump at the end
	var dst32 []float32
	var dst64 []float64
	if dtype == pressio.DTypeFloat32 {
		dst32 = out.Float32()
	} else {
		dst64 = out.Float64()
	}
	defer out.Touch() // a stream found short part way has written some blocks
	for b := range nblocks {
		lo := b * blockSize
		hi := min(lo+blockSize, total)
		constant := flags[b/8]&(1<<(b%8)) != 0
		size := 8
		if !constant {
			size = (hi - lo) * elem
		}
		if len(payload) < size {
			return ErrCorrupt
		}
		p := payload[:size]
		payload = payload[size:]
		switch {
		case constant:
			v := math.Float64frombits(binary.LittleEndian.Uint64(p))
			if dst32 != nil {
				f := float32(v)
				for i := lo; i < hi; i++ {
					dst32[i] = f
				}
			} else {
				for i := lo; i < hi; i++ {
					dst64[i] = v
				}
			}
		case elem == 4:
			for i := lo; i < hi; i++ {
				dst32[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*(i-lo):]))
			}
		default:
			for i := lo; i < hi; i++ {
				dst64[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*(i-lo):]))
			}
		}
	}
	return nil
}
