package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/faultinject"
)

func TestPutGetDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := s.Get("missing"); ok {
		t.Error("missing key found")
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Error("deleted key still present")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Error("deleting a missing key should not error")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put("x", []byte("hello"))
	s.Put("y", []byte("world"))
	s.Put("x", []byte("hello2")) // overwrite
	s.Delete("y")
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get("x")
	if !ok || string(v) != "hello2" {
		t.Errorf("x = %q, %v", v, ok)
	}
	if _, ok, _ := s2.Get("y"); ok {
		t.Error("deleted key resurrected")
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d", s2.Len())
	}
}

func TestCrashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put("good", []byte("value"))
	s.Close()

	// simulate a crash mid-append: write half a record
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // garbage partial frame
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("good"); !ok {
		t.Error("whole record lost during recovery")
	}
	// the store must be writable after recovery (tail truncated)
	if err := s2.Put("after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok, _ := s3.Get("after"); !ok {
		t.Error("post-recovery write lost")
	}
}

func TestCorruptMiddleRecordDropsTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Close()

	// flip a byte inside the first record: both records after the flip
	// point are untrusted
	wal := filepath.Join(dir, "wal.log")
	raw, _ := os.ReadFile(wal)
	raw[6] ^= 0xFF
	os.WriteFile(wal, raw, 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Errorf("corrupt head should drop everything, Len = %d", s2.Len())
	}
}

func TestKeysPrefix(t *testing.T) {
	s, _ := Open(t.TempDir())
	defer s.Close()
	s.Put("metric/a", []byte("1"))
	s.Put("metric/b", []byte("2"))
	s.Put("target/a", []byte("3"))
	keys, err := s.Keys("metric/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "metric/a" || keys[1] != "metric/b" {
		t.Errorf("Keys = %v", keys)
	}
	all, _ := s.Keys("")
	if len(all) != 3 {
		t.Errorf("all keys = %v", all)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for i := 0; i < 100; i++ {
		s.Put("k", []byte(fmt.Sprintf("v%d", i))) // 100 versions of one key
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// log should now be empty; snapshot holds the live set
	info, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil || info.Size() != 0 {
		t.Errorf("wal not truncated: %v bytes", info.Size())
	}
	s.Put("k2", []byte("after-compact"))
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get("k")
	if !ok || string(v) != "v99" {
		t.Errorf("k = %q, %v after compact+reopen", v, ok)
	}
	if _, ok, _ := s2.Get("k2"); !ok {
		t.Error("post-compact write lost")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, _ := Open(t.TempDir())
	s.Close()
	if err := s.Put("x", nil); err != ErrClosed {
		t.Errorf("Put after close = %v", err)
	}
	if _, _, err := s.Get("x"); err != ErrClosed {
		t.Errorf("Get after close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d/k%d", g, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Errorf("Len = %d, want 400", s.Len())
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 400 {
		t.Errorf("reopened Len = %d, want 400", s2.Len())
	}
}

func TestRoundTripQuick(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	defer s.Close()
	f := func(key string, value []byte) bool {
		if key == "" {
			return true
		}
		if err := s.Put(key, value); err != nil {
			return false
		}
		got, ok, err := s.Get(key)
		if err != nil || !ok || len(got) != len(value) {
			return false
		}
		for i := range value {
			if got[i] != value[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTornTailEveryOffset truncates the WAL at every byte offset inside
// the final record and asserts recovery never half-observes it: the
// earlier records survive intact and the torn record is simply absent.
func TestTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	// build a reference log: two whole records plus a final one to tear
	ref := filepath.Join(base, "ref")
	s, err := Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("keep/a", []byte("alpha"))
	s.Put("keep/b", []byte("beta"))
	whole, err := os.ReadFile(filepath.Join(ref, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	s.Put("torn/c", []byte("gamma-gamma-gamma"))
	s.Close()
	full, err := os.ReadFile(filepath.Join(ref, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(whole) {
		t.Fatal("final record added no bytes?")
	}

	for cut := len(whole); cut < len(full); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if v, ok, _ := s2.Get("keep/a"); !ok || string(v) != "alpha" {
			t.Errorf("cut at %d: keep/a = %q, %v", cut, v, ok)
		}
		if v, ok, _ := s2.Get("keep/b"); !ok || string(v) != "beta" {
			t.Errorf("cut at %d: keep/b = %q, %v", cut, v, ok)
		}
		if v, ok, _ := s2.Get("torn/c"); ok {
			t.Errorf("cut at %d: torn record half-observed as %q", cut, v)
		}
		// the truncated store must accept writes again
		if err := s2.Put("after", []byte("x")); err != nil {
			t.Errorf("cut at %d: post-recovery Put: %v", cut, err)
		}
		s2.Close()
	}
}

// TestCrashDuringCompact uses the fault-injection hooks to kill the
// "process" at both compact crash points and asserts no record is lost
// or half-observed either way.
func TestCrashDuringCompact(t *testing.T) {
	for _, point := range []faultinject.Op{faultinject.OpCompactBefore, faultinject.OpCompactAfter} {
		t.Run(string(point), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i)))
			}
			s.Delete("k03")
			s.Inject = faultinject.New(1, faultinject.Rule{
				Op: point, Kind: faultinject.KindCrash, Worker: -1,
			})
			err = s.Compact()
			if !errors.Is(err, ErrCrashed) || !errors.Is(err, faultinject.ErrCrash) {
				t.Fatalf("Compact = %v, want injected crash", err)
			}
			// the store is "dead"; every API call must refuse
			if err := s.Put("x", nil); !errors.Is(err, ErrClosed) {
				t.Errorf("Put after crash = %v", err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery after crash-%s failed: %v", point, err)
			}
			defer s2.Close()
			if s2.Len() != 19 {
				t.Errorf("Len = %d, want 19", s2.Len())
			}
			// 21 entries either way: the seq survives, and the next put
			// continues it
			if err := s2.Put("after", nil); err != nil || s2.LastSeq() != 22 {
				t.Errorf("put after recovery: seq %d, %v; want 22", s2.LastSeq(), err)
			}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%02d", i)
				v, ok, _ := s2.Get(key)
				if i == 3 {
					if ok {
						t.Errorf("deleted %s resurrected", key)
					}
					continue
				}
				if !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Errorf("%s = %q, %v", key, v, ok)
				}
			}
		})
	}
}

// TestCrashAroundPut exercises the put-before/put-after crash points:
// crash-before loses the record (never written), crash-after keeps it
// (written but unacknowledged) — both recover to a consistent store.
func TestCrashAroundPut(t *testing.T) {
	for _, tc := range []struct {
		point     faultinject.Op
		wantAfter bool
	}{
		{faultinject.OpPutBefore, false},
		{faultinject.OpPutAfter, true},
	} {
		t.Run(string(tc.point), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.Put("stable", []byte("yes"))
			s.Inject = faultinject.New(1, faultinject.Rule{
				Op: tc.point, Kind: faultinject.KindCrash, Worker: -1,
			})
			if err := s.Put("doomed", []byte("maybe")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Put = %v, want crash", err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer s2.Close()
			if _, ok, _ := s2.Get("stable"); !ok {
				t.Error("stable record lost")
			}
			if _, ok, _ := s2.Get("doomed"); ok != tc.wantAfter {
				t.Errorf("doomed present = %v, want %v", ok, tc.wantAfter)
			}
		})
	}
}

// TestCompactLeavesNoStaleTemp asserts a crash between snapshot write
// and rename leaves a temp file that the next Open cleans up.
func TestCompactLeavesNoStaleTemp(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put("a", []byte("1"))
	s.Inject = faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpCompactBefore, Kind: faultinject.KindCrash, Worker: -1,
	})
	if err := s.Compact(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Compact = %v", err)
	}
	// temp names are unique per attempt, so match by suffix
	if n := len(globTemps(t, dir)); n != 1 {
		t.Fatalf("crash before rename should leave 1 temp snapshot, found %d", n)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if tmps := globTemps(t, dir); len(tmps) != 0 {
		t.Errorf("Open did not clean up stale temp snapshots: %v", tmps)
	}
	if _, ok, _ := s2.Get("a"); !ok {
		t.Error("record lost")
	}
}

// globTemps lists the *.tmp entries in dir.
func globTemps(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestCompactFailureRemovesTemp covers the non-crash failure path: when
// the snapshot write itself fails (ENOSPC), the temp from that attempt
// is removed immediately and a retry uses a fresh name.
func TestCompactFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	efs := faultinject.NewErrFS(dir, faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSWrite, Kind: faultinject.KindENOSPC, Worker: -1,
		Key: ".tmp", Count: 1,
	}))
	s, err := OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("a", []byte("1"))
	if err := s.Compact(); !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("Compact = %v, want ENOSPC", err)
	}
	if tmps := globTemps(t, dir); len(tmps) != 0 {
		t.Fatalf("failed Compact left temps behind: %v", tmps)
	}
	// the store is still alive and a retry succeeds with a fresh name
	if err := s.Compact(); err != nil {
		t.Fatalf("retry Compact = %v", err)
	}
	if v, ok, _ := s.Get("a"); !ok || string(v) != "1" {
		t.Errorf("a = %q, %v after retried compact", v, ok)
	}
}

// TestModelBasedRandomOps drives the store with a random operation
// sequence (put/delete/compact/reopen) and cross-checks every read
// against an in-memory model — the strongest guard on the WAL/snapshot
// interplay.
func TestModelBasedRandomOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	keys := []string{"a", "b", "c", "d/e", "d/f", "long/key/with/segments"}

	for step := 0; step < 500; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // put
			k := keys[rng.Intn(len(keys))]
			v := fmt.Sprintf("v%d", rng.Intn(1000))
			if err := s.Put(k, []byte(v)); err != nil {
				t.Fatalf("step %d: Put: %v", step, err)
			}
			model[k] = v
		case 5, 6: // delete
			k := keys[rng.Intn(len(keys))]
			if err := s.Delete(k); err != nil {
				t.Fatalf("step %d: Delete: %v", step, err)
			}
			delete(model, k)
		case 7: // compact
			if err := s.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
		case 8: // reopen
			if err := s.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			s, err = Open(dir)
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		case 9: // verify a random key
			k := keys[rng.Intn(len(keys))]
			got, ok, err := s.Get(k)
			if err != nil {
				t.Fatalf("step %d: Get: %v", step, err)
			}
			want, inModel := model[k]
			if ok != inModel || (ok && string(got) != want) {
				t.Fatalf("step %d: Get(%q) = %q,%v; model %q,%v", step, k, got, ok, want, inModel)
			}
		}
	}
	// full final sweep
	if s.Len() != len(model) {
		t.Errorf("Len = %d, model has %d", s.Len(), len(model))
	}
	for k, want := range model {
		got, ok, _ := s.Get(k)
		if !ok || string(got) != want {
			t.Errorf("final: %q = %q,%v; want %q", k, got, ok, want)
		}
	}
	s.Close()
}
