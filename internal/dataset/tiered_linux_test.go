//go:build linux

package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/hurricane"
)

// The tests in this file pin the verify-once rule, which needs the file
// identity only the mmap build has (mmap_other.go hashes every reload).

// newSpillCache is a one-cell memory tier over a spill dir, so acquiring
// the other of two cells evicts the first.
func newSpillCache(t *testing.T, dir string) *TieredCache {
	t.Helper()
	c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes(), SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spillBoth loads and spills P and TC (P ends up evicted) and waits until
// the filesystem's clock has moved past both files, so that their first
// reload is one whose check is remembered.
func spillBoth(t *testing.T, c *TieredCache, dir string) {
	t.Helper()
	touch(t, c, "P")
	touch(t, c, "TC")
	for _, f := range []string{"P", "TC"} {
		awaitTick(t, filepath.Join(dir, spillName(f, 0, tieredDims)))
	}
}

// touch acquires and releases one cell and returns its first elements.
func touch(t *testing.T, c *TieredCache, field string) []float32 {
	t.Helper()
	h, err := c.Acquire(field, 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return append([]float32(nil), h.Data().Float32()...)
}

func ctimeOf(t *testing.T, path string) int64 {
	t.Helper()
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		t.Fatal(err)
	}
	return st.Ctim.Nano()
}

// awaitTick returns once a file changed now would get a later ctime than
// path has: kernels without fine-grained timestamps stamp a whole tick
// with one value.
func awaitTick(t *testing.T, path string) {
	t.Helper()
	probe := filepath.Join(t.TempDir(), "probe")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if ctimeOf(t, probe) > ctimeOf(t, path) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("file timestamps do not advance")
		}
	}
}

// TestTieredReloadHashesOnce: the first reload of a spill file hashes it,
// later reloads of the unchanged file are served on its identity; both
// are disk hits.
func TestTieredReloadHashesOnce(t *testing.T) {
	dir := t.TempDir()
	c := newSpillCache(t, dir)
	spillBoth(t, c, dir)
	want, _ := hurricane.Field("P", 0, tieredDims)
	for reload, checks := range []uint64{1, 2, 2, 2, 2, 2} {
		field := []string{"P", "TC"}[reload%2]
		got := touch(t, c, field)
		st := c.Stats()
		if st.DiskHits != uint64(reload)+1 || st.DigestChecks != checks || st.Misses != 2 {
			t.Fatalf("reload %d (%s): want %d disk hits, %d digest checks, 2 misses, got %+v", reload, field, reload+1, checks, st)
		}
		if field == "P" && got[5] != want.Float32()[5] {
			t.Fatalf("reload %d serves %v, want %v", reload, got[5], want.Float32()[5])
		}
	}
}

// TestTieredUnsettledSpillIsRehashed: a check is remembered only when the
// filesystem's clock is known to have moved past the file's ctime. Where
// the clock cannot be read (its probe file cannot be written here) no
// file ever counts as settled, and every reload is hashed.
func TestTieredUnsettledSpillIsRehashed(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, ".clock"), 0o755); err != nil {
		t.Fatal(err)
	}
	c := newSpillCache(t, dir)
	spillBoth(t, c, dir)
	for _, f := range []string{"P", "TC", "P"} {
		touch(t, c, f)
	}
	if st := c.Stats(); st.DiskHits != 3 || st.DigestChecks != 3 {
		t.Fatalf("want every reload hashed (3 disk hits, 3 checks), got %+v", st)
	}
}

// TestTieredChangedSpillIsRehashed: whatever changes a verified spill
// file while its cell is evicted — in place, in place with mtime put
// back, or by renaming another file over it with the same size and mtime
// — changes its identity, so the next reload hashes it, finds the digest
// wrong, drops the pair and regenerates the cell.
func TestTieredChangedSpillIsRehashed(t *testing.T) {
	overwrite := func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, 8); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, path string){
		"overwritten in place": overwrite,
		"overwritten in place, mtime put back": func(t *testing.T, path string) {
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			overwrite(t, path)
			if err := os.Chtimes(path, before.ModTime(), before.ModTime()); err != nil {
				t.Fatal(err)
			}
			after, _ := os.Stat(path)
			if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
				t.Fatalf("the case needs size and mtime unchanged: %v -> %v", before, after)
			}
		},
		"replaced by rename, same size and mtime": func(t *testing.T, path string) {
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			other := make([]byte, before.Size())
			other[9] = 1
			if err := os.WriteFile(path+".other", other, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path+".other", before.ModTime(), before.ModTime()); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(path+".other", path); err != nil {
				t.Fatal(err)
			}
		},
	}
	want, _ := hurricane.Field("P", 0, tieredDims)
	for name, change := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := newSpillCache(t, dir)
			spillBoth(t, c, dir)
			touch(t, c, "P") // verified and remembered
			touch(t, c, "TC")
			path := filepath.Join(dir, spillName("P", 0, tieredDims))
			awaitTick(t, path)
			change(t, path)

			before := c.Stats()
			got := touch(t, c, "P")
			st := c.Stats()
			if st.DigestChecks != before.DigestChecks+1 || st.Misses != before.Misses+1 || st.DiskHits != before.DiskHits {
				t.Fatalf("a changed spill must be hashed, fail and regenerate: before %+v, after %+v", before, st)
			}
			for i, v := range want.Float32() {
				if got[i] != v {
					t.Fatalf("served element %d = %v, want %v", i, got[i], v)
				}
			}
			// the repaired pair verifies: on disk, and as a disk hit
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			side, err := os.ReadFile(path + ".sha256")
			if err != nil || string(side) != hex.EncodeToString(sum[:])+"\n" {
				t.Fatalf("repaired spill's sidecar %q (%v) does not match its contents", side, err)
			}
			touch(t, c, "TC")
			touch(t, c, "P")
			if after := c.Stats(); after.DiskHits != st.DiskHits+2 || after.Misses != st.Misses {
				t.Fatalf("the repaired pair should reload: %+v -> %+v", st, after)
			}
		})
	}
}

// TestTieredRestartRehashes: what verified is remembered per process. A
// new cache over a populated spill dir hashes every file on its first
// reload, and so catches one corrupted while nobody was looking.
func TestTieredRestartRehashes(t *testing.T) {
	dir := t.TempDir()
	first := newSpillCache(t, dir)
	spillBoth(t, first, dir)
	for _, f := range []string{"P", "TC", "P"} {
		touch(t, first, f)
	}
	if st := first.Stats(); st.DigestChecks != 2 || st.DiskHits != 3 {
		t.Fatalf("setup: want both spills verified once, got %+v", st)
	}
	tc := filepath.Join(dir, spillName("TC", 0, tieredDims))
	raw, err := os.ReadFile(tc)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(tc, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	second := newSpillCache(t, dir)
	touch(t, second, "P")
	if st := second.Stats(); st.DigestChecks != 1 || st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("a restarted cache must hash on first reload: %+v", st)
	}
	got := touch(t, second, "TC")
	if st := second.Stats(); st.DigestChecks != 2 || st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("the corrupted spill must be hashed and regenerated: %+v", st)
	}
	if want, _ := hurricane.Field("TC", 0, tieredDims); got[0] != want.Float32()[0] {
		t.Fatalf("served %v, want %v", got[0], want.Float32()[0])
	}
}
