package store

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameCodecRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Op: FramePut, Key: "model/a/b/c", Value: []byte("bytes")},
		{Op: FramePut, Key: "k", Value: nil},
		{Op: FrameDelete, Key: "job/x/y/z"},
	} {
		buf := EncodeFrame(f)
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode %q: %v", f.Key, err)
		}
		if n != len(buf) {
			t.Errorf("decode %q consumed %d of %d bytes", f.Key, n, len(buf))
		}
		if got.Op != f.Op || got.Key != f.Key || string(got.Value) != string(f.Value) {
			t.Errorf("round trip %q: got %+v", f.Key, got)
		}
	}
}

func TestFrameDecodeRejectsBitFlip(t *testing.T) {
	buf := EncodeFrame(Frame{Op: FramePut, Key: "k", Value: []byte("value")})
	for i := range buf {
		flipped := append([]byte(nil), buf...)
		flipped[i] ^= 0x40
		if _, _, err := DecodeFrame(flipped); err == nil {
			// flipping a length byte can also yield a "torn" short read;
			// either way a nil error would mean silent corruption
			t.Errorf("flip at byte %d decoded cleanly", i)
		}
	}
}

// TestFrameDecodeRefusesWrappingLengths: key and value lengths whose sum
// with the header wraps a 32-bit int are a torn frame, like any length
// the buffer cannot hold (make arch-check runs it with GOARCH=386).
func TestFrameDecodeRefusesWrappingLengths(t *testing.T) {
	buf := EncodeFrame(Frame{Op: FramePut, Key: "k", Value: []byte("value")})
	for _, c := range [][2]uint32{{0x7ffffff0, 0x7ffffff0}, {1, 0x7ffffff4}, {0x7ffffff4, 1}} {
		frame := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(frame[5:], c[0])
		binary.LittleEndian.PutUint32(frame[9:], c[1])
		if _, _, err := DecodeFrame(frame); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("key length %#x, value length %#x: DecodeFrame returned %v; want a torn frame", c[0], c[1], err)
		}
	}
}

func TestApplyIsIdempotentAndRejectsUnknownOp(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f := EncodeFrame(Frame{Op: FramePut, Key: "k", Value: []byte("v")})
	if err := s.Apply("n2", 1, f); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply("n2", 1, f); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get("k"); string(v) != "v" {
		t.Errorf("value = %q", v)
	}
	if err := s.Apply("n2", 2, EncodeFrame(Frame{Op: 9, Key: "k"})); err == nil {
		t.Error("unknown op applied cleanly")
	}
}

// Satellite: Fsck on a WAL corrupted mid-frame — a bit flip inside an
// interior record, not a torn tail. The checksum catches it and the
// repair policy is torn-from-there: everything before the flip survives,
// the flipped record and everything after it are cut.
func TestFsckRepairsMidFrameBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("first", []byte("keep-me"))
	info, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	rec1 := int(info.Size())
	s.Put("second", []byte("flip-me"))
	s.Put("third", []byte("after-the-flip"))
	s.Close()

	wal := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// flip one bit in the middle of the second record's body
	raw[rec1+rec1/2] ^= 0x01
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("mid-frame bit flip reported clean")
	}
	if want := len(raw) - rec1; rep.TornBytes != want {
		t.Errorf("TornBytes = %d, want %d (everything past the flipped record)", rep.TornBytes, want)
	}

	if _, err := Fsck(dir, true); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("store does not reopen after repair: %v", err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("first"); !ok || string(v) != "keep-me" {
		t.Errorf("record before the flip lost: %q %v", v, ok)
	}
	if _, ok, _ := s2.Get("second"); ok {
		t.Error("flipped record survived repair")
	}
	if _, ok, _ := s2.Get("third"); ok {
		t.Error("record after the flip survived repair")
	}
}
