// Package compressor_test fuzzes every registered compressor's
// decompressor with hostile inputs: random bytes, bit-flipped valid
// streams, and truncations must produce errors, never panics or hangs —
// the resilience predict-bench depends on when it feeds thousands of
// buffers through plugins (the paper notes its testing surfaced many
// faults in prediction codes; this is the corresponding hardening).
package compressor_test

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	_ "repro/internal/compressor/lossless"
	"repro/internal/compressor/sz3"
	_ "repro/internal/compressor/szx"
	_ "repro/internal/compressor/zfp"
	"repro/internal/pressio"
)

var allCompressors = []string{"sz3", "zfp", "szx", "lossless"}

func testField(t testing.TB) *pressio.Data {
	t.Helper()
	d := pressio.NewFloat32(8, 8, 8)
	for i := 0; i < d.Len(); i++ {
		d.Set(i, math.Sin(float64(i)/17)*5)
	}
	return d
}

// decompressNoPanic runs Decompress and converts panics to test failures.
func decompressNoPanic(t *testing.T, name string, comp pressio.Compressor, payload []byte, out *pressio.Data) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: Decompress panicked on hostile input: %v", name, r)
		}
	}()
	// error or success are both fine; panic is not
	_ = comp.Decompress(pressio.NewByte(payload), out)
}

func TestDecompressRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range allCompressors {
		comp, err := pressio.GetCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		out := pressio.NewFloat32(8, 8, 8)
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(2048)
			payload := make([]byte, n)
			rng.Read(payload)
			decompressNoPanic(t, name, comp, payload, out)
		}
	}
}

func TestDecompressBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := testField(t)
	for _, name := range allCompressors {
		comp, err := pressio.GetCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 1e-3)
		comp.SetOptions(opts)
		compressed, err := comp.Compress(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := compressed.Bytes()
		out := pressio.NewFloat32(8, 8, 8)
		for trial := 0; trial < 100; trial++ {
			payload := append([]byte(nil), base...)
			// flip 1-4 random bits
			for f := 0; f < 1+rng.Intn(4); f++ {
				pos := rng.Intn(len(payload))
				payload[pos] ^= 1 << rng.Intn(8)
			}
			decompressNoPanic(t, name, comp, payload, out)
		}
	}
}

func TestDecompressAllTruncations(t *testing.T) {
	in := testField(t)
	for _, name := range allCompressors {
		comp, err := pressio.GetCompressor(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 1e-3)
		comp.SetOptions(opts)
		compressed, err := comp.Compress(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base := compressed.Bytes()
		out := pressio.NewFloat32(8, 8, 8)
		// every strict truncation must error (never panic, never succeed
		// silently with a full-length stream contract)
		step := len(base)/64 + 1
		for n := 0; n < len(base); n += step {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic at truncation %d: %v", name, n, r)
					}
				}()
				if err := comp.Decompress(pressio.NewByte(base[:n]), out); err == nil {
					t.Errorf("%s: truncation to %d of %d bytes decoded without error", name, n, len(base))
				}
			}()
		}
	}
}

// TestCrossCompressorStreams feeds each compressor the other compressors'
// valid streams: magic validation must reject them cleanly.
func TestCrossCompressorStreams(t *testing.T) {
	in := testField(t)
	streams := map[string][]byte{}
	for _, name := range allCompressors {
		comp, _ := pressio.GetCompressor(name)
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 1e-3)
		comp.SetOptions(opts)
		compressed, err := comp.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		streams[name] = compressed.Bytes()
	}
	for _, decoder := range allCompressors {
		comp, _ := pressio.GetCompressor(decoder)
		out := pressio.NewFloat32(8, 8, 8)
		for producer, payload := range streams {
			if producer == decoder {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on %s stream: %v", decoder, producer, r)
					}
				}()
				if err := comp.Decompress(pressio.NewByte(payload), out); err == nil {
					t.Errorf("%s accepted a %s stream", decoder, producer)
				}
			}()
		}
	}
}

// TestSZ3RefusesOverflowingCounts rewrites the outlier and coefficient
// counts of a valid sz3 stream to values whose byte lengths wrap an int
// (4·(1<<62) is 0), so a body-length check alone would pass: Decompress
// must refuse each with ErrCorrupt, never panic or allocate the count.
func TestSZ3RefusesOverflowingCounts(t *testing.T) {
	comp, err := pressio.GetCompressor("sz3")
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	comp.SetOptions(opts)
	compressed, err := comp.Compress(testField(t))
	if err != nil {
		t.Fatal(err)
	}
	base := compressed.Bytes()
	// magic, dtype, mode, abs, bins, nd, then nd dims, noutlier, ncoeff
	nd := int(binary.LittleEndian.Uint32(base[18:]))
	counts := map[string]int{"noutlier": 22 + 8*nd, "ncoeff": 30 + 8*nd}
	for name, off := range counts {
		for _, v := range []uint64{1 << 61, 1 << 62, 1<<63 - 1, 1<<63 + 1<<61} {
			payload := append([]byte(nil), base...)
			binary.LittleEndian.PutUint64(payload[off:], v)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s=%#x: Decompress panicked: %v", name, v, r)
					}
				}()
				err := comp.Decompress(pressio.NewByte(payload), pressio.NewFloat32(8, 8, 8))
				if !errors.Is(err, sz3.ErrCorrupt) {
					t.Errorf("%s=%#x: Decompress returned %v, want sz3.ErrCorrupt", name, v, err)
				}
			}()
		}
	}
}
