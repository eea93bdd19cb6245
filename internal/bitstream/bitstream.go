// Package bitstream implements MSB-first bit-level readers and writers used
// by the entropy-coding stages of the compressors (Huffman in sz3, embedded
// bit-plane coding in zfp).
//
// Writers accumulate into a 64-bit register and spill eight bytes at a
// time; readers refill a 64-bit register and serve most reads from it
// without touching memory. This keeps the per-bit cost low enough that the
// coding stages are not the bottleneck of the compressor pipelines.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortStream is returned when a read runs past the end of the stream.
var ErrShortStream = errors.New("bitstream: read past end of stream")

// Writer appends bits MSB-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, right-aligned (low nacc bits)
	nacc uint   // number of pending bits in acc, in [0, 64)
}

// NewWriter returns a Writer that appends its stream to buf: Bytes returns
// buf's bytes followed by the stream (BitLen counts both), in buf's
// storage while its capacity lasts, so a caller can write a stream in
// place behind its header.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit uint64) {
	bit &= 1
	if w.nacc < 63 {
		w.acc = w.acc<<1 | bit
		w.nacc++
		return
	}
	w.WriteBits(bit, 1)
}

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d > 64", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	if free := 64 - w.nacc; n < free {
		w.acc = w.acc<<n | v
		w.nacc += n
		return
	} else if n == free {
		w.spill(w.acc<<(n&63) | v)
		w.acc = 0
		w.nacc = 0
		return
	} else {
		hi := n - free // bits that do not fit the register
		w.spill(w.acc<<(free&63) | v>>hi)
		w.acc = v & ((1 << hi) - 1)
		w.nacc = hi
	}
}

// spill appends a full 64-bit register, MSB first.
func (w *Writer) spill(word uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, word)
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nacc) }

// Reset clears the writer for reuse, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
}

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The writer may continue to be used; padding bits become part of the
// stream, so call Bytes only once, when encoding is complete.
func (w *Writer) Bytes() []byte {
	for w.nacc >= 8 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nacc)))
		w.acc = 0
		w.nacc = 0
	}
	w.acc = 0
	return w.buf
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	pos  int    // next unread byte index
	acc  uint64 // pending bits, left-aligned at bit 63
	nacc uint   // number of pending bits in acc
}

// NewReader returns a Reader over buf. The slice is not copied.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint64, error) {
	if r.nacc == 0 && !r.refill() {
		return 0, ErrShortStream
	}
	out := r.acc >> 63
	r.acc <<= 1
	r.nacc--
	return out, nil
}

// refill tops the register up to at least 57 pending bits (or the end of
// the stream) and reports whether any bits are pending.
func (r *Reader) refill() bool {
	for r.nacc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nacc)
		r.nacc += 8
		r.pos++
	}
	return r.nacc > 0
}

// ReadBits reads n bits MSB-first. n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits n=%d > 64", n))
	}
	if n == 0 {
		return 0, nil
	}
	if n > 56 {
		// split so a single refill always suffices per part
		hi, err := r.ReadBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	if r.nacc < n {
		r.refill()
		if r.nacc < n {
			return 0, ErrShortStream
		}
	}
	out := r.acc >> ((64 - n) & 63)
	r.acc <<= n
	r.nacc -= n
	return out, nil
}

// ReadZeroRun consumes a run of zero bits terminated by a one bit, as
// produced by unary coders. It returns the number of zeros read. The
// terminating one is consumed unless maxZeros zeros were read first, in
// which case exactly maxZeros bits are consumed (the caller knows the
// terminator is implicit). Runs resolve with leading-zero counts on the
// bit register instead of per-bit reads.
func (r *Reader) ReadZeroRun(maxZeros int) (int, error) {
	total := 0
	for {
		if r.nacc == 0 && !r.refill() {
			return total, ErrShortStream
		}
		z := bits.LeadingZeros64(r.acc)
		if uint(z) > r.nacc {
			z = int(r.nacc) // bits below nacc are padding, not stream zeros
		}
		if total+z >= maxZeros {
			take := uint(maxZeros - total)
			r.acc <<= take
			r.nacc -= take
			return maxZeros, nil
		}
		if uint(z) < r.nacc {
			// found the terminating one within the register
			r.acc <<= uint(z) + 1
			r.nacc -= uint(z) + 1
			return total + z, nil
		}
		// register is all zeros: consume it and refill
		total += z
		r.acc = 0
		r.nacc = 0
	}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nacc)
}
