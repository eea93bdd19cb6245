//go:build linux

package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/hurricane"
	"repro/internal/pressio"
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

// servedDims is serve_cold's cell: 64×64×96 float32, 1.5 MiB.
var servedDims = []int{64, 64, 96}

// heapGrowth reports how far HeapAlloc grows, both sides measured after a
// collection, while eight cells of servedDims are loaded through a tier
// that holds them all and are left resident; then it closes the tier.
func heapGrowth(t *testing.T, spillDir string) (grew, cell int64, st TieredStats) {
	t.Helper()
	cell = 4 * int64(servedDims[0]*servedDims[1]*servedDims[2])
	c, err := NewTiered(TieredConfig{CapacityBytes: 8 * cell, SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for step := 0; step < 8; step++ {
		h, err := c.Acquire("P", step, servedDims)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st = c.Stats()
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), cell, st
}

// TestTieredSpilledCellsLeaveTheHeap: a resident cell is a mapping — its
// spill file's with a disk tier, an anonymous one without — so in either
// configuration eight resident cells grow the Go heap by less than one of
// them, and every resident byte is mapped.
func TestTieredSpilledCellsLeaveTheHeap(t *testing.T) {
	for name, dir := range map[string]string{"disk tier": t.TempDir(), "no disk tier": ""} {
		grew, cell, st := heapGrowth(t, dir)
		if grew >= cell {
			t.Errorf("%s: the heap grew by %d bytes for 8 resident cells, want less than one cell (%d)", name, grew, cell)
		}
		if st.ResidentBytes != 8*cell || st.MappedBytes != st.ResidentBytes {
			t.Errorf("%s: want 8 resident mapped cells, got %+v", name, st)
		}
	}
}

// TestTieredKeptSlotsStayWithinTheirBound: thirty cells pass through a
// two-cell memory tier, each given a slot as large as khan_surrogate's
// residual sample of it (2 % of its elements, as float64), and are all
// evicted, so their slots would keep several times the bound;
// the tier keeps them to an eighth of CapacityBytes, declared and
// measured: the heap, both sides measured after a collection, shrinks by
// no more than that when Close drops them.
func TestTieredKeptSlotsStayWithinTheirBound(t *testing.T) {
	dims := []int{32, 32, 64}
	cell := int64(4 * dims[0] * dims[1] * dims[2])
	bound := 2 * cell / 8
	c, err := NewTiered(TieredConfig{
		CapacityBytes: 2 * cell,
		SpillDir:      t.TempDir(),
		Loader: func(_ string, step int, dims []int) (*pressio.Data, error) {
			d := pressio.NewFloat32(dims...)
			for i := range d.Float32() {
				d.Float32()[i] = float32(step + i)
			}
			return d, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sample := int(cell / 4 / 50)
	for step := 0; step < 32; step++ { // the last two, slotless, evict the last two slots
		h, err := c.Acquire("P", step, dims)
		if err != nil {
			t.Fatal(err)
		}
		if step < 30 {
			h.Data().StoreDerived(slotKey{}, &slotValue{payload: make([]float64, sample)})
		}
		h.Release()
	}
	st := c.Stats()
	if st.Evictions != 30 || st.KeptSlots == 0 || st.KeptBytes > bound {
		t.Fatalf("want 30 evictions and their slots kept within %d bytes, got %+v", bound, st)
	}
	if unbounded := 30 * int64(8*sample); unbounded < 3*bound {
		t.Fatalf("the slots would keep %d bytes without the bound: too few to test it", unbounded)
	}
	var kept, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&kept)
	c.Close()
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	if held := int64(kept.HeapAlloc) - int64(dropped.HeapAlloc); held > bound {
		t.Fatalf("the kept slots held %d bytes of heap (%d declared), want at most %d", held, st.KeptBytes, bound)
	} else {
		t.Logf("%d slots kept: %d bytes declared, %d bytes of heap, bound %d", st.KeptSlots, st.KeptBytes, held, bound)
	}
}

// writeFaults reports whether a write to v[0] faults.
func writeFaults(v []float32) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		_, faulted = recover().(interface{ Addr() uintptr })
	}()
	v[0] = 1
	return false
}

// TestTieredResidentCellIsReadOnly: a resident cell is sealed, whichever
// tier it came from — anonymous without a disk tier, its spill's mapping
// when fresh, the same when reloaded — so a stray write through it faults
// instead of diverging from what every other holder reads.
func TestTieredResidentCellIsReadOnly(t *testing.T) {
	for name, dir := range map[string]string{"no disk tier": "", "disk tier": t.TempDir()} {
		t.Run(name, func(t *testing.T) {
			c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes(), SpillDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// P fresh, then TC (evicting P), then P again: reloaded with a
			// disk tier, loaded afresh without one
			for i, field := range []string{"P", "TC", "P"} {
				h, err := c.Acquire(field, 0, tieredDims)
				if err != nil {
					t.Fatal(err)
				}
				if !writeFaults(h.Data().Float32()) {
					t.Errorf("acquire %d (%s): a write through the resident cell did not fault", i, field)
				}
				h.Release()
			}
			if st := c.Stats(); dir != "" && st.DiskHits != 1 {
				t.Fatalf("want the last acquire reloaded from the spill, got %+v", st)
			}
		})
	}
}

// TestTieredClose: Close unmaps every unpinned cell at once, a pinned one
// at its last Release (readable until then), and a load still settling
// when it ran with that load's last handle; Acquire fails after it.
func TestTieredClose(t *testing.T) {
	base := LiveMappings()
	gate := make(chan struct{})
	c, err := NewTiered(TieredConfig{CapacityBytes: 4 * tieredBytes(),
		Loader: func(field string, step int, dims []int) (*pressio.Data, error) {
			if field == "W" {
				<-gate
			}
			return hurricane.Field(field, step, dims)
		}})
	if err != nil {
		t.Fatal(err)
	}
	touch(t, c, "TC")
	pinned, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	settling := make(chan *Handle, 1) // the one handle W's acquire sends
	go func() {
		h, err := c.Acquire("W", 0, tieredDims)
		if err != nil {
			t.Error(err)
		}
		settling <- h
	}()
	for started := false; !started; time.Sleep(time.Millisecond) { // wait for W's load to start
		c.mu.Lock()
		_, started = c.entries[tieredKey{field: "W", d0: tieredDims[0], d1: tieredDims[1], d2: tieredDims[2]}]
		c.mu.Unlock()
	}
	if got := LiveMappings() - base; got != 2 {
		t.Fatalf("want TC and P mapped, %d regions live", got)
	}

	c.Close()
	if st := c.Stats(); st.ResidentBytes != 0 || st.MappedBytes != tieredBytes() || LiveMappings()-base != 1 {
		t.Fatalf("after Close want only the pinned P mapped, got %+v and %d regions", st, LiveMappings()-base)
	}
	want, _ := hurricane.Field("P", 0, tieredDims)
	if got := pinned.Data().Float32()[5]; got != want.Float32()[5] {
		t.Fatalf("the pinned cell reads %v after Close, want %v", got, want.Float32()[5])
	}
	if _, err := c.Acquire("P", 0, tieredDims); err == nil {
		t.Fatal("Acquire after Close succeeded")
	}
	pinned.Release()
	if st := c.Stats(); st.MappedBytes != 0 || LiveMappings() != base {
		t.Fatalf("the last Release must unmap P: %+v, %d regions", st, LiveMappings()-base)
	}

	close(gate)
	w := <-settling
	if w == nil {
		t.FailNow()
	}
	if st := c.Stats(); st.ResidentBytes != 0 || st.MappedBytes != tieredBytes() {
		t.Fatalf("a load settling after Close is served but not admitted: %+v", st)
	}
	w.Release()
	c.Close()
	if st := c.Stats(); st.MappedBytes != 0 || LiveMappings() != base || len(c.entries) != 0 {
		t.Fatalf("closed cache still holds %+v, %d regions, %d entries", st, LiveMappings()-base, len(c.entries))
	}
}

// TestTieredFreshCellIsMapped: a cell just loaded and spilled is served
// as the mapping of its spill file, whose bytes are the ones its sidecar
// names, and its first reload after an eviction still hashes the file.
func TestTieredFreshCellIsMapped(t *testing.T) {
	dir := t.TempDir()
	c := newSpillCache(t, dir)
	h, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.ResidentBytes != tieredBytes() || st.MappedBytes != st.ResidentBytes {
		t.Fatalf("want one fresh mapped cell, got %+v", st)
	}
	fl := h.Data().Float32()
	sum := sha256.Sum256(unsafe.Slice((*byte)(unsafe.Pointer(&fl[0])), 4*len(fl)))
	side, err := os.ReadFile(filepath.Join(dir, spillName("P", 0, tieredDims)) + ".sha256")
	if err != nil || string(side) != hex.EncodeToString(sum[:])+"\n" {
		t.Fatalf("the served bytes do not hash to the sidecar %q (%v)", side, err)
	}
	want, _ := hurricane.Field("P", 0, tieredDims)
	for i, v := range want.Float32() {
		if fl[i] != v {
			t.Fatalf("served element %d = %v, want %v", i, fl[i], v)
		}
	}
	h.Release()
	touch(t, c, "TC")
	touch(t, c, "P")
	if st := c.Stats(); st.DiskHits != 1 || st.DigestChecks != 1 {
		t.Fatalf("the first reload of a fresh spill must hash it: %+v", st)
	}
}
