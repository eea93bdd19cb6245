package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/vfs"
)

// TestWALAppendENOSPCRecovers fills the "disk" during a WAL append: the
// Put must surface ENOSPC, the torn prefix must be healed away so later
// appends stay recoverable, and a reopen of the same directory must see
// exactly the acknowledged records.
func TestWALAppendENOSPCRecovers(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSWrite, Kind: faultinject.KindENOSPC, Worker: -1,
		Key: "wal.log", At: 2, Count: 1,
	}))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	err = s.Put("b", []byte("doomed"))
	if !errors.Is(err, faultinject.ErrNoSpace) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put = %v, want ENOSPC", err)
	}
	// the failed record's torn prefix must not poison later appends
	if err := s.Put("c", []byte("third")); err != nil {
		t.Fatalf("Put after ENOSPC = %v", err)
	}
	// the failed put took no seq, and the own stream reads back through
	// the seam from the healed WAL
	if got := readStream(t, s, Local, 1); len(got) != 2 || got[0].Key != "a" || got[1].Key != "c" {
		t.Errorf("own stream after ENOSPC = %+v", got)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("a"); !ok {
		t.Error("acknowledged record a lost")
	}
	if _, ok, _ := s2.Get("b"); ok {
		t.Error("failed record b half-observed")
	}
	if _, ok, _ := s2.Get("c"); !ok {
		t.Error("post-failure record c lost")
	}
}

// TestWALAppendShortWriteHeals is the same recovery contract for a bare
// short write (no errno, just a torn buffer).
func TestWALAppendShortWriteHeals(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSWrite, Kind: faultinject.KindShort, Worker: -1,
		Key: "wal.log", At: 1, Count: 1,
	}))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", []byte("never-lands")); !errors.Is(err, faultinject.ErrShortWrite) {
		t.Fatalf("Put = %v, want short write", err)
	}
	if err := s.Put("whole", []byte("lands")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("torn"); ok {
		t.Error("short-written record observed")
	}
	if _, ok, _ := s2.Get("whole"); !ok {
		t.Error("healed WAL lost the following record")
	}
}

// TestWALSyncFailureSurfaces runs a Sync-mode store into a failed fsync:
// the Put errors (the caller must not ack), and since the bytes may or
// may not be durable, either outcome is acceptable on reopen — but the
// store must reopen cleanly.
func TestWALSyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSSync, Kind: faultinject.KindError, Worker: -1,
		Key: "wal.log", At: 2, Count: 1,
	}))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = true
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put with failed fsync = %v, want injected error", err)
	}
	if err := s.Put("c", []byte("3")); err != nil {
		t.Fatalf("Put after failed fsync = %v", err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after failed fsync: %v", err)
	}
	defer s2.Close()
	for _, key := range []string{"a", "c"} {
		if _, ok, _ := s2.Get(key); !ok {
			t.Errorf("acknowledged record %s lost", key)
		}
	}
}

// TestCompactSyncFailureKeepsOldSnapshot fails the fsync of the new
// snapshot: Compact must error, remove its temp, and leave the previous
// snapshot + WAL authoritative.
func TestCompactSyncFailureKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSSync, Kind: faultinject.KindError, Worker: -1,
		Key: ".tmp", Count: 1,
	}))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if err := s.Compact(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	if tmps := globTemps(t, dir); len(tmps) != 0 {
		t.Errorf("failed Compact left temps: %v", tmps)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.db")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed Compact must not install a snapshot: %v", err)
	}
	if v, ok, _ := s.Get("a"); !ok || string(v) != "1" {
		t.Errorf("a = %q, %v after failed compact", v, ok)
	}
}

// TestCrashMidWALAppendViaSeam crashes inside the WAL write itself — the
// torn prefix lands, the fs dies, and the frozen copy must recover to
// exactly the pre-crash acknowledged set.
func TestCrashMidWALAppendViaSeam(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSWrite, Kind: faultinject.KindCrash, Worker: -1,
		Key: "wal.log", At: 3,
	}))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if err := s.Put("c", []byte("3")); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("Put = %v, want crash", err)
	}
	frozen := efs.FrozenDir()
	if frozen == "" {
		t.Fatal("no frozen state after crash")
	}

	// fsck sees the torn tail, repairs it, and the store reopens
	rep, err := Fsck(frozen, true)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if rep.TornBytes == 0 || !rep.TornTruncated {
		t.Errorf("fsck missed the torn tail: %+v", rep)
	}
	s2, err := Open(frozen)
	if err != nil {
		t.Fatalf("reopen of frozen state: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Errorf("Len = %d, want 2", s2.Len())
	}
	if _, ok, _ := s2.Get("c"); ok {
		t.Error("torn record c half-observed")
	}
}

// TestTornTailEveryOffsetViaSeam reruns the byte-by-byte torn-tail sweep
// through the vfs seam (OpenFS with the plain OS filesystem wrapped in an
// inert errfs) to pin that recovery behaves identically below the seam.
func TestTornTailEveryOffsetViaSeam(t *testing.T) {
	base := t.TempDir()
	ref := filepath.Join(base, "ref")
	s, err := OpenFS(ref, faultinject.NewErrFS(ref, nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Put("keep/a", []byte("alpha"))
	whole, err := os.ReadFile(filepath.Join(ref, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	s.Put("torn/b", []byte("beta-beta"))
	s.Close()
	full, err := os.ReadFile(filepath.Join(ref, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(whole); cut < len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenFS(dir, faultinject.NewErrFS(dir, nil))
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if _, ok, _ := s2.Get("keep/a"); !ok {
			t.Errorf("cut at %d: keep/a lost", cut)
		}
		if _, ok, _ := s2.Get("torn/b"); ok {
			t.Errorf("cut at %d: torn record observed", cut)
		}
		s2.Close()
	}
}

// TestWALHealFailurePoisonsStore kills the heal truncate after a failed
// write: the store must refuse all further operations rather than risk
// acknowledging writes stacked on a torn tail.
func TestWALHealFailurePoisonsStore(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1,
		faultinject.Rule{
			Op: faultinject.OpFSWrite, Kind: faultinject.KindENOSPC, Worker: -1,
			Key: "wal.log", Count: 1,
		},
		faultinject.Rule{
			Op: faultinject.OpFSTruncate, Kind: faultinject.KindError, Worker: -1,
			Key: "wal.log", Count: 1,
		},
	))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("1")); !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("Put = %v, want ENOSPC", err)
	}
	if err := s.Put("b", []byte("2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after failed heal = %v, want ErrClosed", err)
	}
}

// syncCountFS is the real filesystem, counting every fsync (of a file or
// of a directory) made through it.
type syncCountFS struct {
	vfs.FS
	syncs *atomic.Int64
}

func (f syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountFile{file, f.syncs}, nil
}

func (f syncCountFS) SyncDir(dir string) error {
	f.syncs.Add(1)
	return f.FS.SyncDir(dir)
}

type syncCountFile struct {
	vfs.File
	syncs *atomic.Int64
}

func (f syncCountFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestCloseSyncsOnlyWhatItChanged: Close fsyncs the WAL only when this
// handle changed it without an fsync. A clean open and close — what a
// resume's lookups cost — issues none; a Put on a Sync=false store leaves
// one for Close to issue.
func TestCloseSyncsOnlyWhatItChanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fsys := syncCountFS{vfs.OS, new(atomic.Int64)}
	s, err = OpenFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("a"); !ok {
		t.Fatal("record a lost")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fsys.syncs.Load(); n != 0 {
		t.Fatalf("a clean open and close issued %d fsyncs, want 0", n)
	}

	s, err = OpenFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fsys.syncs.Load(); n != 1 {
		t.Fatalf("a Put then Close on a Sync=false store issued %d fsyncs, want 1", n)
	}
}
