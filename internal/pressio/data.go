package pressio

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// Data is an n-dimensional typed buffer, the unit of exchange between
// dataset loaders, compressors, metrics, and predictors. Dims are stored in
// C order: the last dimension varies fastest in memory.
//
// A Data value stores exactly one of the typed backing slices according to
// its DType. The generic At/Set accessors convert through float64, which is
// convenient (and exact for every supported type except very large int64
// values) for statistics code that must work across element types.
type Data struct {
	dtype DType
	dims  []int

	f32 []float32
	f64 []float64
	i32 []int32
	i64 []int64
	by  []byte

	// version counts mutations made through this Data value (Set,
	// Touch, UnmarshalBinary). Everything derived from the contents —
	// the slot below — is valid for one version only, so a mutated
	// buffer never serves stale statistics. Mutating a backing slice
	// obtained from Float64()/Float32()/... directly bypasses the
	// counter; such writes must happen before the buffer is shared with
	// metrics, or be preceded or followed by Touch (the decompressors
	// call it before writing their output in place).
	version uint64

	// derived is the buffer's derived-value slot (Derived/StoreDerived).
	// It makes Data non-copyable: Reshape and UnmarshalBinary build
	// their results field by field.
	derived atomic.Pointer[derivedSet]
}

// derivedSet is one published state of the slot: the values stored for
// one version of the buffer. It is never mutated after publication, so
// readers need no lock; a store publishes a fresh copy.
type derivedSet struct {
	version uint64
	n       int
	entries [maxDerived]derivedEntry // entries[:n], oldest first
}

type derivedEntry struct{ key, value any }

// maxDerived bounds the slot. The working set is the fused summary, one
// quantized entropy and one result per error-agnostic metric of a
// scheme; the bound only stops a client that sweeps a metric option
// (entropy:bins, say) from growing a resident buffer's slot without
// limit. The oldest entry goes first.
const maxDerived = 16

// Derived returns the value last stored under key for the buffer's
// current Version, or nil. The slot is the home of everything small that
// is computed from the contents (the fused summary, error-agnostic
// metric results): it is reachable only through the buffer, so derived
// values are collected with it, and a Reshape view or a Clone starts
// empty because dims are part of what they were computed from. Stored
// values are shared between goroutines and must be treated as immutable.
func (d *Data) Derived(key any) any {
	s := d.derived.Load()
	if s == nil || s.version != d.version {
		return nil
	}
	for i := range s.entries[:s.n] {
		if s.entries[i].key == key {
			return s.entries[i].value
		}
	}
	return nil
}

// StoreDerived records value under key (a comparable value, typically
// of a package-private type) for the buffer's current Version,
// replacing any earlier value under the same key and dropping whatever
// was stored for older versions. Concurrent stores are safe; when two
// goroutines store the same key the last one wins, which is sound for
// values that are pure functions of the contents.
func (d *Data) StoreDerived(key, value any) {
	for {
		old := d.derived.Load()
		next := &derivedSet{version: d.version}
		if old != nil && old.version == d.version {
			for _, e := range old.entries[:old.n] {
				if e.key != key {
					next.entries[next.n] = e
					next.n++
				}
			}
			if next.n == maxDerived { // no room left: the oldest goes
				next.n = copy(next.entries[:], next.entries[1:])
			}
		}
		next.entries[next.n] = derivedEntry{key, value}
		next.n++
		if d.derived.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewByte wraps a raw byte buffer (e.g. a compressed payload) in a Data.
// The buffer is used directly, not copied.
func NewByte(b []byte) *Data {
	return &Data{dtype: DTypeByte, dims: []int{len(b)}, by: b}
}

// NewFloat32 allocates a zeroed float32 buffer with the given dims.
func NewFloat32(dims ...int) *Data {
	d := &Data{dtype: DTypeFloat32, dims: cloneDims(dims)}
	d.f32 = make([]float32, d.Len())
	return d
}

// NewFloat64 allocates a zeroed float64 buffer with the given dims.
func NewFloat64(dims ...int) *Data {
	d := &Data{dtype: DTypeFloat64, dims: cloneDims(dims)}
	d.f64 = make([]float64, d.Len())
	return d
}

// NewInt32 allocates a zeroed int32 buffer with the given dims.
func NewInt32(dims ...int) *Data {
	d := &Data{dtype: DTypeInt32, dims: cloneDims(dims)}
	d.i32 = make([]int32, d.Len())
	return d
}

// NewInt64 allocates a zeroed int64 buffer with the given dims.
func NewInt64(dims ...int) *Data {
	d := &Data{dtype: DTypeInt64, dims: cloneDims(dims)}
	d.i64 = make([]int64, d.Len())
	return d
}

// FromFloat32 wraps an existing float32 slice. len(v) must equal the
// product of dims. The slice is used directly, not copied.
func FromFloat32(v []float32, dims ...int) *Data {
	d := &Data{dtype: DTypeFloat32, dims: cloneDims(dims), f32: v}
	if len(v) != d.Len() {
		panic(fmt.Sprintf("pressio: FromFloat32 dims %v need %d elements, got %d", dims, d.Len(), len(v)))
	}
	return d
}

// FromFloat64 wraps an existing float64 slice. len(v) must equal the
// product of dims. The slice is used directly, not copied.
func FromFloat64(v []float64, dims ...int) *Data {
	d := &Data{dtype: DTypeFloat64, dims: cloneDims(dims), f64: v}
	if len(v) != d.Len() {
		panic(fmt.Sprintf("pressio: FromFloat64 dims %v need %d elements, got %d", dims, d.Len(), len(v)))
	}
	return d
}

// New allocates a zeroed buffer of the given type and dims.
func New(t DType, dims ...int) *Data {
	switch t {
	case DTypeFloat32:
		return NewFloat32(dims...)
	case DTypeFloat64:
		return NewFloat64(dims...)
	case DTypeInt32:
		return NewInt32(dims...)
	case DTypeInt64:
		return NewInt64(dims...)
	case DTypeByte:
		d := &Data{dtype: DTypeByte, dims: cloneDims(dims)}
		d.by = make([]byte, d.Len())
		return d
	}
	panic(fmt.Sprintf("pressio: New: unsupported dtype %v", t))
}

func cloneDims(dims []int) []int {
	out := make([]int, len(dims))
	copy(out, dims)
	return out
}

// DType returns the element type of the buffer.
func (d *Data) DType() DType { return d.dtype }

// Dims returns the dimensions of the buffer in C order (last fastest).
// The returned slice must not be modified.
func (d *Data) Dims() []int { return d.dims }

// Len returns the number of elements in the buffer.
func (d *Data) Len() int {
	n := 1
	for _, v := range d.dims {
		n *= v
	}
	if len(d.dims) == 0 {
		return 0
	}
	return n
}

// ByteSize returns the size of the buffer in bytes.
func (d *Data) ByteSize() int { return d.Len() * d.dtype.Size() }

// Float32 returns the backing float32 slice; it panics for other dtypes.
func (d *Data) Float32() []float32 {
	if d.dtype != DTypeFloat32 {
		panic("pressio: Float32 called on " + d.dtype.String() + " data")
	}
	return d.f32
}

// Float64 returns the backing float64 slice; it panics for other dtypes.
func (d *Data) Float64() []float64 {
	if d.dtype != DTypeFloat64 {
		panic("pressio: Float64 called on " + d.dtype.String() + " data")
	}
	return d.f64
}

// Int32 returns the backing int32 slice; it panics for other dtypes.
func (d *Data) Int32() []int32 {
	if d.dtype != DTypeInt32 {
		panic("pressio: Int32 called on " + d.dtype.String() + " data")
	}
	return d.i32
}

// Int64 returns the backing int64 slice; it panics for other dtypes.
func (d *Data) Int64() []int64 {
	if d.dtype != DTypeInt64 {
		panic("pressio: Int64 called on " + d.dtype.String() + " data")
	}
	return d.i64
}

// Bytes returns the backing byte slice; it panics for other dtypes.
func (d *Data) Bytes() []byte {
	if d.dtype != DTypeByte {
		panic("pressio: Bytes called on " + d.dtype.String() + " data")
	}
	return d.by
}

// At returns element i converted to float64.
func (d *Data) At(i int) float64 {
	switch d.dtype {
	case DTypeFloat32:
		return float64(d.f32[i])
	case DTypeFloat64:
		return d.f64[i]
	case DTypeInt32:
		return float64(d.i32[i])
	case DTypeInt64:
		return float64(d.i64[i])
	case DTypeByte:
		return float64(d.by[i])
	}
	panic("pressio: At: unsupported dtype")
}

// Version returns the mutation generation of the buffer. It increases on
// every Set, Touch and UnmarshalBinary; equal (pointer, Version) pairs
// denote identical contents, which is what makes values derived from a
// buffer (Derived) sound to reuse.
func (d *Data) Version() uint64 { return d.version }

// Set stores v into element i, converting from float64.
func (d *Data) Set(i int, v float64) {
	d.version++
	switch d.dtype {
	case DTypeFloat32:
		d.f32[i] = float32(v)
	case DTypeFloat64:
		d.f64[i] = v
	case DTypeInt32:
		d.i32[i] = int32(v)
	case DTypeInt64:
		d.i64[i] = int64(v)
	case DTypeByte:
		d.by[i] = byte(v)
	default:
		panic("pressio: Set: unsupported dtype")
	}
}

// Touch records a mutation made directly through a backing slice
// (Float32(), Float64(), ...). Bulk writers that fill the backing storage
// in place must call Touch once afterwards so values derived from the
// previous contents are no longer served.
func (d *Data) Touch() { d.version++ }

// Clone returns a deep copy of the buffer.
func (d *Data) Clone() *Data {
	out := &Data{dtype: d.dtype, dims: cloneDims(d.dims)}
	switch d.dtype {
	case DTypeFloat32:
		out.f32 = append([]float32(nil), d.f32...)
	case DTypeFloat64:
		out.f64 = append([]float64(nil), d.f64...)
	case DTypeInt32:
		out.i32 = append([]int32(nil), d.i32...)
	case DTypeInt64:
		out.i64 = append([]int64(nil), d.i64...)
	case DTypeByte:
		out.by = append([]byte(nil), d.by...)
	}
	return out
}

// Reshape returns a view of the same backing storage with new dims. The
// element count must match.
func (d *Data) Reshape(dims ...int) (*Data, error) {
	n := 1
	for _, v := range dims {
		n *= v
	}
	if n != d.Len() {
		return nil, fmt.Errorf("pressio: reshape %v (%d elements) incompatible with %v (%d elements)", dims, n, d.dims, d.Len())
	}
	// field by field, not *d: the view shares storage and version but
	// must start with an empty derived slot (dims-dependent values)
	return &Data{
		dtype: d.dtype, dims: cloneDims(dims),
		f32: d.f32, f64: d.f64, i32: d.i32, i64: d.i64, by: d.by,
		version: d.version,
	}, nil
}

// Range returns the minimum and maximum element values as float64.
// It returns (0, 0) for an empty buffer.
func (d *Data) Range() (lo, hi float64) {
	n := d.Len()
	if n == 0 {
		return 0, 0
	}
	// Specialize the common float32 case: predictors call Range on every
	// inference and the generic At path is measurably slower.
	if d.dtype == DTypeFloat32 {
		l, h := d.f32[0], d.f32[0]
		for _, v := range d.f32[1:] {
			if v < l {
				l = v
			}
			if v > h {
				h = v
			}
		}
		return float64(l), float64(h)
	}
	lo = d.At(0)
	hi = lo
	for i := 1; i < n; i++ {
		v := d.At(i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// MarshalBinary encodes the buffer (dtype, dims, payload) in a stable
// little-endian format suitable for caching on disk.
func (d *Data) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 16+8*len(d.dims)+d.ByteSize())
	out = binary.LittleEndian.AppendUint32(out, uint32(d.dtype))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(d.dims)))
	for _, v := range d.dims {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	switch d.dtype {
	case DTypeFloat32:
		for _, v := range d.f32 {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	case DTypeFloat64:
		for _, v := range d.f64 {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	case DTypeInt32:
		for _, v := range d.i32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	case DTypeInt64:
		for _, v := range d.i64 {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	case DTypeByte:
		out = append(out, d.by...)
	}
	return out, nil
}

// UnmarshalBinary decodes a buffer produced by MarshalBinary.
func (d *Data) UnmarshalBinary(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("pressio: data header truncated: %d bytes", len(b))
	}
	dt := DType(binary.LittleEndian.Uint32(b))
	nd := uint64(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if dt.Size() == 0 {
		return fmt.Errorf("pressio: data header: unknown dtype %d", dt)
	}
	if uint64(len(b)) < 8*nd {
		return fmt.Errorf("pressio: data dims truncated")
	}
	dims, total, err := ReadDims(b, int(nd))
	if err != nil {
		return fmt.Errorf("pressio: data header: %w", err)
	}
	b = b[8*nd:]
	// the payload's length is checked before anything is allocated for it
	if want := total * dt.Size(); len(b) != want {
		return fmt.Errorf("pressio: data payload is %d bytes, want %d", len(b), want)
	}
	out := New(dt, dims...)
	switch dt {
	case DTypeFloat32:
		for i := range out.f32 {
			out.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case DTypeFloat64:
		for i := range out.f64 {
			out.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case DTypeInt32:
		for i := range out.i32 {
			out.i32[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case DTypeInt64:
		for i := range out.i64 {
			out.i64[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	case DTypeByte:
		copy(out.by, b)
	}
	d.dtype, d.dims = out.dtype, out.dims
	d.f32, d.f64, d.i32, d.i64, d.by = out.f32, out.f64, out.i32, out.i64, out.by
	d.version++
	d.derived.Store(nil)
	return nil
}

// MaxElements bounds the element count a deserialized header may claim;
// generous for real data, small enough that a corrupt header cannot make
// element-count arithmetic overflow or drive block loops astronomically:
// 1<<44 where int is 64 bits wide, and where it is 32 bits, the largest
// count whose size in 8-byte elements still fits in an int.
const MaxElements = min(1<<44, math.MaxInt/8)

// ReadDims decodes nd little-endian uint64 dimensions from the front of
// b, as every header in this module stores them, and validates them as
// CheckDims does, returning their product. Each value is checked against
// MaxElements before it becomes an int, which is 32 bits wide on some
// targets, so a dim like 1<<32+8 cannot wrap onto a plausible one. b must
// hold 8*nd bytes.
func ReadDims(b []byte, nd int) ([]int, int, error) {
	dims := make([]int, nd)
	for i := range dims {
		v := binary.LittleEndian.Uint64(b[8*i:])
		if v > MaxElements {
			return nil, 0, fmt.Errorf("pressio: dim %d exceeds element limit", v)
		}
		dims[i] = int(v)
	}
	total, err := CheckDims(dims)
	return dims, total, err
}

// CheckDims validates dimensions decoded from an untrusted stream: every
// dimension must be positive and the element product must stay within
// MaxElements (computed overflow-safely). It returns the product.
func CheckDims(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("pressio: empty dims")
	}
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("pressio: non-positive dimension %d", d)
		}
		if d > MaxElements || total > MaxElements/d {
			return 0, fmt.Errorf("pressio: dims %v exceed element limit", dims)
		}
		total *= d
	}
	return total, nil
}
