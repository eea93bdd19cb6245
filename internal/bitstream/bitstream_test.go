package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleBits(t *testing.T) {
	var w Writer
	pattern := []uint64{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var w Writer
	w.WriteBits(0xFF, 4) // only low 4 bits (0xF) should be written
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(4)
	if err != nil || got != 0xF {
		t.Errorf("got %x, err %v; want f", got, err)
	}
}

func TestFullWidthWords(t *testing.T) {
	var w Writer
	vals := []uint64{0, 1, 0xDEADBEEFCAFEF00D, ^uint64(0)}
	for _, v := range vals {
		w.WriteBits(v, 64)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
		if got != want {
			t.Errorf("word %d = %x, want %x", i, got, want)
		}
	}
}

func TestBitLen(t *testing.T) {
	var w Writer
	w.WriteBits(0, 3)
	if w.BitLen() != 3 {
		t.Errorf("BitLen = %d, want 3", w.BitLen())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 16 {
		t.Errorf("BitLen = %d, want 16", w.BitLen())
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 16)
	w.WriteBits(1, 3)
	w.Reset()
	if w.BitLen() != 0 {
		t.Fatalf("BitLen after Reset = %d, want 0", w.BitLen())
	}
	w.WriteBits(0xA5, 8)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0xA5 {
		t.Fatalf("post-Reset write: got %x", got)
	}
}

func TestShortStream(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrShortStream {
		t.Errorf("expected ErrShortStream, got %v", err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Errorf("Remaining = %d, want 16", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Errorf("Remaining = %d, want 11", r.Remaining())
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%200 + 1
		vals := make([]uint64, n)
		widths := make([]uint, n)
		var w Writer
		for i := range vals {
			widths[i] = uint(rng.Intn(64) + 1)
			vals[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			if widths[i] == 64 {
				vals[i] = rng.Uint64()
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroWidthWrite(t *testing.T) {
	var w Writer
	w.WriteBits(123, 0)
	if w.BitLen() != 0 {
		t.Errorf("zero-width write changed BitLen to %d", w.BitLen())
	}
	r := NewReader(nil)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Errorf("zero-width read = %d, %v", v, err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w Writer
		for j := 0; j < 4096; j++ {
			w.WriteBits(uint64(j), 13)
		}
		w.Bytes()
	}
}

func BenchmarkReadBits(b *testing.B) {
	var w Writer
	for j := 0; j < 4096; j++ {
		w.WriteBits(uint64(j), 13)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for j := 0; j < 4096; j++ {
			if _, err := r.ReadBits(13); err != nil {
				b.Fatal(err)
			}
		}
	}
}
