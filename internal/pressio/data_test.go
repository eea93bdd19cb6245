package pressio

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{
		DTypeByte:    1,
		DTypeFloat32: 4,
		DTypeFloat64: 8,
		DTypeInt32:   4,
		DTypeInt64:   8,
	}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", dt, got, want)
		}
	}
	if DType(99).Size() != 0 {
		t.Errorf("unknown dtype size should be 0")
	}
}

func TestParseDTypeRoundTrip(t *testing.T) {
	for _, dt := range []DType{DTypeByte, DTypeFloat32, DTypeFloat64, DTypeInt32, DTypeInt64} {
		got, err := ParseDType(dt.String())
		if err != nil {
			t.Fatalf("ParseDType(%q): %v", dt.String(), err)
		}
		if got != dt {
			t.Errorf("ParseDType(%q) = %v, want %v", dt.String(), got, dt)
		}
	}
	if _, err := ParseDType("complex128"); err == nil {
		t.Error("ParseDType should reject unknown names")
	}
}

func TestDataLenAndByteSize(t *testing.T) {
	d := NewFloat32(4, 5, 6)
	if d.Len() != 120 {
		t.Errorf("Len = %d, want 120", d.Len())
	}
	if d.ByteSize() != 480 {
		t.Errorf("ByteSize = %d, want 480", d.ByteSize())
	}
	empty := &Data{dtype: DTypeFloat32}
	if empty.Len() != 0 {
		t.Errorf("zero-dim Len = %d, want 0", empty.Len())
	}
}

func TestDataAtSetAllTypes(t *testing.T) {
	for _, dt := range []DType{DTypeFloat32, DTypeFloat64, DTypeInt32, DTypeInt64, DTypeByte} {
		d := New(dt, 8)
		d.Set(3, 42)
		if got := d.At(3); got != 42 {
			t.Errorf("%v: At(3) = %v, want 42", dt, got)
		}
		if got := d.At(0); got != 0 {
			t.Errorf("%v: At(0) = %v, want 0", dt, got)
		}
	}
}

func TestDataCloneIsDeep(t *testing.T) {
	d := NewFloat64(3)
	d.Set(0, 1.5)
	c := d.Clone()
	c.Set(0, 9.9)
	if d.At(0) != 1.5 {
		t.Errorf("Clone shares storage: original changed to %v", d.At(0))
	}
	if c.DType() != d.DType() || c.Len() != d.Len() {
		t.Errorf("Clone changed shape/type")
	}
}

func TestDataReshape(t *testing.T) {
	d := NewFloat32(4, 6)
	r, err := d.Reshape(2, 12)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	r.Set(0, 7)
	if d.At(0) != 7 {
		t.Error("Reshape should share storage")
	}
	if _, err := d.Reshape(5, 5); err == nil {
		t.Error("Reshape should reject mismatched element counts")
	}
}

func TestDataRange(t *testing.T) {
	d := FromFloat32([]float32{3, -1, 4, 1, 5, -9, 2, 6}, 8)
	lo, hi := d.Range()
	if lo != -9 || hi != 6 {
		t.Errorf("Range = (%v, %v), want (-9, 6)", lo, hi)
	}
	d64 := FromFloat64([]float64{2.5}, 1)
	lo, hi = d64.Range()
	if lo != 2.5 || hi != 2.5 {
		t.Errorf("singleton Range = (%v, %v)", lo, hi)
	}
}

func TestDataMarshalRoundTripQuick(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		for i, v := range vals {
			if math.IsNaN(float64(v)) {
				vals[i] = 0 // NaN != NaN breaks comparison, not the codec
			}
		}
		d := FromFloat32(vals, len(vals))
		b, err := d.MarshalBinary()
		if err != nil {
			return false
		}
		var got Data
		if err := got.UnmarshalBinary(b); err != nil {
			return false
		}
		if got.DType() != DTypeFloat32 || got.Len() != len(vals) {
			return false
		}
		for i, v := range vals {
			if got.Float32()[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataMarshalRoundTripAllTypes(t *testing.T) {
	for _, dt := range []DType{DTypeByte, DTypeFloat32, DTypeFloat64, DTypeInt32, DTypeInt64} {
		d := New(dt, 2, 3)
		for i := 0; i < d.Len(); i++ {
			d.Set(i, float64(i*3+1))
		}
		b, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: marshal: %v", dt, err)
		}
		var got Data
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("%v: unmarshal: %v", dt, err)
		}
		if got.DType() != dt {
			t.Errorf("%v: dtype changed to %v", dt, got.DType())
		}
		if len(got.Dims()) != 2 || got.Dims()[0] != 2 || got.Dims()[1] != 3 {
			t.Errorf("%v: dims changed to %v", dt, got.Dims())
		}
		for i := 0; i < d.Len(); i++ {
			if got.At(i) != d.At(i) {
				t.Errorf("%v: element %d = %v, want %v", dt, i, got.At(i), d.At(i))
			}
		}
	}
}

func TestDataUnmarshalRejectsTruncation(t *testing.T) {
	d := NewFloat32(10)
	b, _ := d.MarshalBinary()
	for _, n := range []int{0, 4, 8, len(b) - 1} {
		var got Data
		if err := got.UnmarshalBinary(b[:n]); err == nil {
			t.Errorf("UnmarshalBinary accepted %d-byte truncation", n)
		}
	}
}

func TestFromFloat32PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromFloat32 should panic when dims mismatch data length")
		}
	}()
	FromFloat32(make([]float32, 5), 2, 2)
}

func TestTypedAccessorPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Float64 on float32 data should panic")
		}
	}()
	NewFloat32(1).Float64()
}

func TestCheckDims(t *testing.T) {
	if n, err := CheckDims([]int{4, 5, 6}); err != nil || n != 120 {
		t.Errorf("CheckDims = %d, %v", n, err)
	}
	for _, bad := range [][]int{
		nil,
		{0},
		{-3, 4},
		{1 << (bits.UintSize - 2), 1 << (bits.UintSize - 2)}, // would overflow int
		{MaxElements + 1},
	} {
		if _, err := CheckDims(bad); err == nil {
			t.Errorf("CheckDims(%v) accepted", bad)
		}
	}
}

func TestUnmarshalRejectsHugeDims(t *testing.T) {
	// craft a header claiming astronomically large dims (the overflow
	// attack the decompressor fuzzing surfaced)
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(DTypeFloat32))
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, 1<<62)
	b = binary.LittleEndian.AppendUint64(b, 1<<62)
	var d Data
	if err := d.UnmarshalBinary(b); err == nil {
		t.Error("overflowing dims accepted")
	}
}

// TestUnmarshalRefusesHeaderValuesPastInt rewrites one header value of
// a valid buffer at a time. A dim is checked before it becomes an int,
// which is 32 bits wide on 386 (make arch-check), where 1<<32+8 would
// read as 8 and decode as the original; and the payload's length before
// anything is allocated, where a dim within MaxElements would otherwise
// allocate its 16 GiB. An unknown dtype is an error, not New's panic.
func TestUnmarshalRefusesHeaderValuesPastInt(t *testing.T) {
	valid, err := NewFloat32(8).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// dtype at 0, nd at 4, the dim at 8
	cases := []struct {
		name  string
		off   int
		value uint64
		width int // bytes
	}{
		{"dim 1<<32+8", 8, 1<<32 + 8, 8},
		{"dim MaxElements", 8, MaxElements, 8},
		{"dim 1<<64-1", 8, 1<<64 - 1, 8},
		{"nd 1<<29", 4, 1 << 29, 4},
		{"nd 1<<32-1", 4, 1<<32 - 1, 4},
		{"dtype 99", 0, 99, 4},
	}
	for _, tc := range cases {
		b := append([]byte(nil), valid...)
		if tc.width == 8 {
			binary.LittleEndian.PutUint64(b[tc.off:], tc.value)
		} else {
			binary.LittleEndian.PutUint32(b[tc.off:], uint32(tc.value))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: UnmarshalBinary panicked: %v", tc.name, r)
				}
			}()
			var d Data
			if err := d.UnmarshalBinary(b); err == nil {
				t.Errorf("%s: UnmarshalBinary accepted it as %v", tc.name, d.Dims())
			}
		}()
	}
}

type slotKey struct{ name string }

func TestDerivedSlotFollowsVersion(t *testing.T) {
	mutations := map[string]func(d *Data){
		"Set":   func(d *Data) { d.Set(1, 5) },
		"Touch": func(d *Data) { d.Float32()[1] = 5; d.Touch() },
		"UnmarshalBinary": func(d *Data) {
			raw, err := FromFloat32([]float32{9, 8, 7, 6}, 4).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.UnmarshalBinary(raw); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, mutate := range mutations {
		d := FromFloat32([]float32{1, 2, 3, 4}, 4)
		if got := d.Derived(slotKey{"a"}); got != nil {
			t.Fatalf("%s: fresh buffer slot holds %v", name, got)
		}
		d.StoreDerived(slotKey{"a"}, 1.5)
		d.StoreDerived(slotKey{"b"}, "two")
		d.StoreDerived(slotKey{"a"}, 2.5) // replaces, does not duplicate
		if got := d.Derived(slotKey{"a"}); got != 2.5 {
			t.Fatalf("%s: Derived(a) = %v, want 2.5", name, got)
		}
		if got := d.Derived(slotKey{"b"}); got != "two" {
			t.Fatalf("%s: Derived(b) = %v, want two", name, got)
		}
		v := d.Version()
		mutate(d)
		if d.Version() == v {
			t.Fatalf("%s did not move the version", name)
		}
		for _, k := range []slotKey{{"a"}, {"b"}} {
			if got := d.Derived(k); got != nil {
				t.Errorf("%s: value stored for version %d still served at %d: %v", name, v, d.Version(), got)
			}
		}
		// the slot works again at the new version, without the old entries
		d.StoreDerived(slotKey{"c"}, 3)
		if d.Derived(slotKey{"c"}) != 3 || d.Derived(slotKey{"a"}) != nil {
			t.Errorf("%s: slot after mutation: c=%v a=%v", name, d.Derived(slotKey{"c"}), d.Derived(slotKey{"a"}))
		}
	}
}

func TestDerivedSlotNotInheritedByViewsAndCopies(t *testing.T) {
	d := NewFloat32(4, 6)
	d.StoreDerived(slotKey{"dims-dependent"}, "4x6")
	r, err := d.Reshape(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Derived(slotKey{"dims-dependent"}); got != nil {
		t.Errorf("Reshape view inherited %v", got)
	}
	if got := d.Clone().Derived(slotKey{"dims-dependent"}); got != nil {
		t.Errorf("Clone inherited %v", got)
	}
	// and what the view stores stays on the view
	r.StoreDerived(slotKey{"dims-dependent"}, "2x12")
	if got := d.Derived(slotKey{"dims-dependent"}); got != "4x6" {
		t.Errorf("storing on the view changed the original's slot to %v", got)
	}
}

func TestDerivedSlotBounded(t *testing.T) {
	d := NewFloat32(2)
	for i := 0; i < 3*maxDerived; i++ {
		d.StoreDerived(i, i)
	}
	if n := d.derived.Load().n; n != maxDerived {
		t.Fatalf("slot holds %d entries, want the bound %d", n, maxDerived)
	}
	if d.Derived(0) != nil {
		t.Error("the oldest entry should have been dropped")
	}
	if last := 3*maxDerived - 1; d.Derived(last) != last {
		t.Error("the newest entry should be present")
	}
}

func TestDerivedSlotConcurrentStores(t *testing.T) {
	d := NewFloat32(2)
	const writers = 8
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				d.StoreDerived(w, i)
				if got, ok := d.Derived(w).(int); !ok || got != i {
					t.Errorf("writer %d read %v after storing %d", w, d.Derived(w), i)
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	for w := 0; w < writers; w++ {
		if d.Derived(w) != 199 {
			t.Errorf("key %d = %v after all stores, want 199", w, d.Derived(w))
		}
	}
}

// sizedValue declares its heap bytes, as a large derived value does.
type sizedValue int

func (v sizedValue) DerivedBytes() int { return int(v) }

// TestDerivedSlotDetachAndAdopt: a detached slot leaves its buffer empty
// and carries the values of the buffer's current version to another
// buffer, which adopts them only while its own slot is empty; a slot
// stored for an older version detaches as nothing.
func TestDerivedSlotDetachAndAdopt(t *testing.T) {
	d := NewFloat32(4)
	d.StoreDerived(slotKey{"a"}, 1.5)
	d.StoreDerived(slotKey{"b"}, sizedValue(1000))
	s := d.DetachDerived()
	if d.Derived(slotKey{"a"}) != nil {
		t.Fatal("the detached buffer still holds its values")
	}
	if want := int64(unsafe.Sizeof(derivedSet{})) + undeclaredBytes + 1000; s.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), want)
	}
	twin := NewFloat32(4)
	twin.Touch() // another version: adoption restamps the values
	if !twin.AdoptDerived(s) || twin.Derived(slotKey{"a"}) != 1.5 || twin.Derived(slotKey{"b"}) != sizedValue(1000) {
		t.Fatal("the twin did not adopt the slot's values")
	}
	busy := NewFloat32(4)
	busy.StoreDerived(slotKey{"c"}, 3)
	if busy.AdoptDerived(s) || busy.Derived(slotKey{"a"}) != nil || busy.Derived(slotKey{"c"}) != 3 {
		t.Fatal("a buffer with values of its own adopted a slot")
	}
	stale := NewFloat32(4)
	stale.StoreDerived(slotKey{"a"}, 1.5)
	stale.Touch()
	if s := stale.DetachDerived(); s.Bytes() != 0 || NewFloat32(4).AdoptDerived(s) {
		t.Fatal("a slot of an older version detached with values")
	}
	if (DerivedSlot{}).Bytes() != 0 {
		t.Fatal("the zero slot has bytes")
	}
}
