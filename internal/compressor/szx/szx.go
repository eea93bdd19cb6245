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

	"repro/internal/parallel"
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
	threads   int // worker cap for the parallel block passes; 0 = all cores
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
	if v, ok := opts.GetInt(pressio.OptNThreads); ok {
		if v < 0 {
			return fmt.Errorf("szx: %s must be non-negative, got %d", pressio.OptNThreads, v)
		}
		c.threads = int(v)
	}
	return nil
}

// Options implements pressio.Compressor.
func (c *Compressor) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, c.abs)
	o.Set(OptBlockSize, int64(c.blockSize))
	o.Set(pressio.OptNThreads, int64(c.threads))
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
	vals := stats.Float64Of(in)
	n := len(vals)
	nblocks := (n + c.blockSize - 1) / c.blockSize

	out := make([]byte, 0, n/2+64)
	out = append(out, magic...)
	out = append(out, byte(in.DType()), byte(len(in.Dims())))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.abs))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.blockSize))
	for _, d := range in.Dims() {
		out = binary.LittleEndian.AppendUint64(out, uint64(d))
	}

	// Pass 1 (parallel): classify each block and compute its constant
	// representative. Flags land in a per-block bool slice so workers
	// never share a byte; the bitset packs serially afterwards.
	isConst := make([]bool, nblocks)
	mids := make([]float64, nblocks)
	elem := 8
	if in.DType() == pressio.DTypeFloat32 {
		elem = 4
	}
	dtype := in.DType()
	parallel.ForTasks(c.threads, nblocks, func(b int) {
		lo := b * c.blockSize
		hi := lo + c.blockSize
		if hi > n {
			hi = n
		}
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		mid := mn + (mx-mn)/2
		if mx-mn <= 2*c.abs && withinStorage(mid, mn, mx, c.abs, dtype) {
			isConst[b] = true
			mids[b] = mid
		}
	})

	// payload offsets by prefix sum, then pass 2 (parallel) writes each
	// block's bytes into its slot — identical bytes to the serial append
	flags := make([]byte, (nblocks+7)/8)
	offs := make([]int, nblocks+1)
	for b := 0; b < nblocks; b++ {
		size := 8
		if !isConst[b] {
			lo := b * c.blockSize
			hi := lo + c.blockSize
			if hi > n {
				hi = n
			}
			size = (hi - lo) * elem
		} else {
			flags[b/8] |= 1 << (b % 8)
		}
		offs[b+1] = offs[b] + size
	}
	payload := make([]byte, offs[nblocks])
	parallel.ForTasks(c.threads, nblocks, func(b int) {
		lo := b * c.blockSize
		hi := lo + c.blockSize
		if hi > n {
			hi = n
		}
		p := payload[offs[b]:offs[b+1]]
		if isConst[b] {
			binary.LittleEndian.PutUint64(p, math.Float64bits(mids[b]))
		} else if elem == 4 {
			for i, v := range vals[lo:hi] {
				binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(float32(v)))
			}
		} else {
			for i, v := range vals[lo:hi] {
				binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
			}
		}
	})
	out = append(out, flags...)
	out = append(out, payload...)
	return pressio.NewByte(out), nil
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
	// offsets from the flag bits (serial prescan), then blocks decode in
	// parallel into a flat buffer
	offs := make([]int, nblocks+1)
	for b := 0; b < nblocks; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > total {
			hi = total
		}
		size := 8
		if flags[b/8]&(1<<(b%8)) == 0 {
			size = (hi - lo) * elem
		}
		offs[b+1] = offs[b] + size
	}
	if offs[nblocks] > len(payload) {
		return ErrCorrupt
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
	parallel.ForTasks(c.threads, nblocks, func(b int) {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > total {
			hi = total
		}
		p := payload[offs[b]:]
		if flags[b/8]&(1<<(b%8)) != 0 {
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
		} else if elem == 4 {
			for i := lo; i < hi; i++ {
				dst32[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*(i-lo):]))
			}
		} else {
			for i := lo; i < hi; i++ {
				dst64[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*(i-lo):]))
			}
		}
	})
	out.Touch()
	return nil
}
