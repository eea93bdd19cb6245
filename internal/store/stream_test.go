package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func putFrame(key, val string) []byte {
	return EncodeFrame(Frame{Op: FramePut, Key: key, Value: []byte(val)})
}

// readStream returns every entry of stream the store can still read,
// decoded.
func readStream(t *testing.T, s *Store, stream string, from uint64) []Frame {
	t.Helper()
	raw, err := s.Entries(stream, from, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Frame, len(raw))
	for i, b := range raw {
		f, n, err := DecodeFrame(b)
		if err != nil || n != len(b) {
			t.Fatalf("entry %d of %q: %v", from+uint64(i), stream, err)
		}
		out[i] = f
	}
	return out
}

func TestStreamReopenKeepsSeq(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range []string{"a", "b", "c"} {
		if err := s.Put("k/"+kv, []byte(kv)); err != nil {
			t.Fatal(err)
		}
	}
	if s.LastSeq() != 3 {
		t.Errorf("LastSeq = %d", s.LastSeq())
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LastSeq() != 3 {
		t.Fatalf("reopened LastSeq = %d, want 3", s2.LastSeq())
	}
	ents := readStream(t, s2, Local, 2)
	if len(ents) != 2 || ents[0].Key != "k/b" || ents[1].Key != "k/c" {
		t.Fatalf("entries from 2 = %+v", ents)
	}
	if err := s2.Put("k/d", []byte("d")); err != nil || s2.LastSeq() != 4 {
		t.Fatalf("put after reopen: seq %d, %v", s2.LastSeq(), err)
	}
}

func TestStreamTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(encodeEntry(Local, 3, putFrame("c", "3"))[:20]) // half an entry
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.LastSeq() != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", s2.LastSeq())
	}
	// the tail was physically cut, so a fresh entry lands clean
	if err := s2.Put("c", []byte("3")); err != nil || s2.LastSeq() != 3 {
		t.Fatalf("put after truncation: seq %d, %v", s2.LastSeq(), err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if ents := readStream(t, s3, Local, 1); len(ents) != 3 || ents[2].Key != "c" {
		t.Fatalf("reopen after heal: %+v", ents)
	}
}

func TestApplyRejectsDupGapAndCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	f1 := putFrame("a", "1")
	if err := s.Apply("n2", 1, f1); err != nil {
		t.Fatal(err)
	}
	// duplicate delivery (stream resume) is a no-op
	if err := s.Apply("n2", 1, putFrame("a", "changed")); err != nil {
		t.Fatalf("dup seq rejected: %v", err)
	}
	if v, _, _ := s.Get("a"); s.Seq("n2") != 1 || string(v) != "1" {
		t.Fatalf("after dup: seq %d, a = %q", s.Seq("n2"), v)
	}
	// a gap means entries were lost: hard error
	if err := s.Apply("n2", 3, putFrame("c", "3")); err == nil {
		t.Fatal("gap accepted")
	}
	// a CRC-corrupt shipped frame is rejected before it is written — the
	// same checksum logic Fsck applies to the WAL
	bad := putFrame("b", "2")
	bad[len(bad)-1] ^= 0x10
	err = s.Apply("n2", 2, bad)
	if err == nil || !strings.Contains(err.Error(), "corrupt frame rejected") {
		t.Fatalf("corrupt frame error = %v", err)
	}
	if _, ok, _ := s.Get("b"); ok || s.Seq("n2") != 1 {
		t.Fatalf("corrupt frame advanced the stream to %d", s.Seq("n2"))
	}
	// the good version of seq 2 still lands, and the Local stream never
	// moved
	if err := s.Apply("n2", 2, putFrame("b", "2")); err != nil {
		t.Fatal(err)
	}
	if s.Seq("n2") != 2 || s.LastSeq() != 0 {
		t.Errorf("seqs: n2 %d, local %d", s.Seq("n2"), s.LastSeq())
	}
}

func TestOwnStreamHoldsAuthoredWritesOnly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("never-there"); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply("n2", 1, putFrame("b", "2")); err != nil {
		t.Fatal(err)
	}

	own := readStream(t, s, Local, 1)
	if len(own) != 2 {
		t.Fatalf("own stream holds %d entries, want 2: %+v", len(own), own)
	}
	if own[0].Op != FramePut || own[0].Key != "a" || string(own[0].Value) != "1" {
		t.Errorf("entry 1 = %+v", own[0])
	}
	if own[1].Op != FrameDelete || own[1].Key != "a" {
		t.Errorf("entry 2 = %+v", own[1])
	}
	if got := readStream(t, s, "n2", 1); len(got) != 1 || got[0].Key != "b" {
		t.Errorf("stream n2 = %+v", got)
	}
	if v, ok, _ := s.Get("b"); !ok || string(v) != "2" {
		t.Errorf("applied frame not visible: %q %v", v, ok)
	}
}

// TestAppliedNoOpDeleteStaysInStream: C applies A's put of k, B's delete
// of k, then A's delete of k, which changes nothing at C. The entry is
// written all the same, so the stream C relays for A has no gap.
func TestAppliedNoOpDeleteStaysInStream(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	del := EncodeFrame(Frame{Op: FrameDelete, Key: "k"})
	for _, step := range []struct {
		stream string
		seq    uint64
		frame  []byte
	}{{"A", 1, putFrame("k", "v")}, {"B", 1, del}, {"A", 2, del}} {
		if err := c.Apply(step.stream, step.seq, step.frame); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok, _ := c.Get("k"); ok {
		t.Error("k survived both deletes")
	}
	got := readStream(t, c, "A", 1)
	if c.Seq("A") != 2 || len(got) != 2 || got[1].Op != FrameDelete {
		t.Fatalf("relay of A: seq %d, entries %+v", c.Seq("A"), got)
	}
}

// TestCompactContinuesStreams: Compact folds the entries into the
// snapshot but keeps every stream's seq, so after a reopen the next Put
// continues the own stream and a relayed stream accepts only its next
// entry.
func TestCompactContinuesStreams(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put("k", []byte{byte(i)})
	}
	s.Apply("n2", 1, putFrame("r", "1"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.LastSeq() != 3 || s2.Seq("n2") != 1 {
		t.Fatalf("seqs after compact + reopen: local %d, n2 %d", s2.LastSeq(), s2.Seq("n2"))
	}
	if err := s2.Put("k", []byte("next")); err != nil || s2.LastSeq() != 4 {
		t.Fatalf("put after compact: seq %d, %v", s2.LastSeq(), err)
	}
	if got := readStream(t, s2, Local, 4); len(got) != 1 || string(got[0].Value) != "next" {
		t.Errorf("entry 4 = %+v", got)
	}
	if _, err := s2.Entries(Local, 3, 10); err == nil {
		t.Error("compacted entry 3 read back")
	}
	if err := s2.Apply("n2", 3, putFrame("r", "3")); err == nil {
		t.Error("gap past the compacted seq accepted")
	}
	if err := s2.Apply("n2", 2, putFrame("r", "2")); err != nil || s2.Seq("n2") != 2 {
		t.Errorf("next relayed entry: seq %d, %v", s2.Seq("n2"), err)
	}
}
