package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"

	"repro/internal/hurricane"
	"repro/internal/pressio"
)

var tieredDims = []int{4, 4, 4} // 64 floats = 256 bytes per cell

func tieredBytes() int64 { return 4 * 64 }

// TestTieredPointerIdentity: every Acquire of a resident cell returns
// the SAME *pressio.Data — the property stats.SummaryOf's
// (pointer, version) cache keys on to share summaries across requests.
func TestTieredPointerIdentity(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: 10 * tieredBytes()})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	h2, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h1.Data() != h2.Data() {
		t.Fatal("second Acquire returned a different buffer pointer")
	}
	st := c.Stats()
	if st.Misses != 1 || st.MemHits != 1 {
		t.Fatalf("want 1 miss + 1 mem hit, got %+v", st)
	}
	want, _ := hurricane.Field("P", 0, tieredDims)
	if got := h1.Data().Float32(); got[7] != want.Float32()[7] {
		t.Fatalf("cached cell diverges from hurricane.Field: %v vs %v", got[7], want.Float32()[7])
	}
}

// TestTieredSpillDigestMatchesManifest pins the spill format against the
// corpus manifest: a cell spilled by the tiered cache is byte-identical
// (same name, same SHA-256) to the file BuildCorpus writes for the same
// (field, step, dims, seed 0) cell.
func TestTieredSpillDigestMatchesManifest(t *testing.T) {
	corpusDir := t.TempDir()
	m, _, err := BuildCorpus(corpusDir, []string{"P", "TC"}, 2, tieredDims, 0)
	if err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	c, err := NewTiered(TieredConfig{CapacityBytes: 10 * tieredBytes(), SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"P", "TC"} {
		for step := 0; step < 2; step++ {
			h, err := c.Acquire(field, step, tieredDims)
			if err != nil {
				t.Fatal(err)
			}
			h.Release()
		}
	}
	for _, e := range m.Entries {
		raw, err := os.ReadFile(filepath.Join(spillDir, e.File))
		if err != nil {
			t.Fatalf("spill missing for corpus file %s: %v", e.File, err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != e.SHA256 {
			t.Fatalf("%s: spill digest %s != manifest digest %s", e.File, got, e.SHA256)
		}
		side, err := os.ReadFile(filepath.Join(spillDir, e.File+".sha256"))
		if err != nil {
			t.Fatalf("sidecar missing: %v", err)
		}
		if string(side) != e.SHA256+"\n" {
			t.Fatalf("%s: sidecar %q != manifest digest", e.File, side)
		}
	}
}

// TestTieredMmapReload: an evicted-then-reacquired cell reloads from the
// spill file byte-identically and (on platforms with mmap) without
// copying, and the mapping is returned once the cell is evicted and
// unpinned.
func TestTieredMmapReload(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes(), SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h, err = c.Acquire("TC", 0, tieredDims) // capacity is one cell: evicts P.t00
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("want 1 eviction, got %+v", st)
	}

	h, err = c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("reload should be a disk hit, got %+v", st)
	}
	want, _ := hurricane.Field("P", 0, tieredDims)
	got := h.Data().Float32()
	for i, v := range want.Float32() {
		if got[i] != v {
			t.Fatalf("reloaded element %d = %v, want %v", i, got[i], v)
		}
	}
	// pin the reloaded cell while evicting it, then release: the backing
	// must survive the eviction and be freed only on the last release
	h2, err := c.Acquire("TC", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if got[0] != want.Float32()[0] {
		t.Fatal("pinned buffer died on eviction")
	}
	h.Release()
	//lint:ignore pressiovet/poolescape double Release is the idempotence contract under test
	h.Release()
	// only resident mappings may remain: the pinned-but-evicted cell's
	// region must be returned on the last release
	if st := c.Stats(); st.MappedBytes > st.ResidentBytes {
		t.Fatalf("evicted+released mapping leaked: %+v", st)
	}
}

// slotDims are cells whose tier keeps a slot: one 16 KiB cell in the
// memory tier leaves its kept slots 2 KiB (an eighth).
var slotDims = []int{16, 16, 16}

func slotCellBytes() int64 { return 4 * 16 * 16 * 16 }

// slotKey and slotValue stand for what the metrics store in a buffer's
// slot: a value derived from its contents, which declares its bytes.
type slotKey struct{}

type slotValue struct{ payload []float64 }

func (v *slotValue) DerivedBytes() int { return 8 * len(v.payload) }

// acquireSlot acquires a cell, reports whether its buffer holds the slot
// value a previous buffer of it was given, and then gives this one a
// fresh value.
func acquireSlot(t *testing.T, c *TieredCache, field string, step int) (held bool) {
	t.Helper()
	h, err := c.Acquire(field, step, slotDims)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	_, held = h.Data().Derived(slotKey{}).(*slotValue)
	h.Data().StoreDerived(slotKey{}, &slotValue{payload: make([]float64, 64)})
	return held
}

// TestTieredTornSpill: a spill file torn by a crash (truncated payload,
// stale sidecar) is detected by the digest check, dropped, and the cell
// regenerated — the cache never serves bytes that don't verify — and the
// slot kept beside the spill is dropped with it. A spill rewritten with
// other bytes and their sidecar verifies and is served, but the slot
// kept for the old bytes is not adopted by the new ones.
func TestTieredTornSpill(t *testing.T) {
	for _, damage := range []string{"torn", "rewritten"} {
		t.Run(damage, func(t *testing.T) {
			spillDir := t.TempDir()
			c, err := NewTiered(TieredConfig{CapacityBytes: slotCellBytes(), SpillDir: spillDir})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			acquireSlot(t, c, "P", 0)
			acquireSlot(t, c, "TC", 0) // evict P.t00 from memory
			if st := c.Stats(); st.KeptSlots != 1 {
				t.Fatalf("P's slot was not kept: %+v", st)
			}

			path := filepath.Join(spillDir, spillName("P", 0, slotDims))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := hurricane.Field("P", 0, slotDims)
			if damage == "torn" {
				if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil { // torn write
					t.Fatal(err)
				}
			} else {
				other, _ := hurricane.Field("U", 0, slotDims)
				want = other
				rewrite, _ := other.MarshalBinary()
				rewrite = rewrite[len(rewrite)-len(raw):] // the payload: raw little-endian float32
				sum := sha256.Sum256(rewrite)
				if err := os.WriteFile(path, rewrite, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path+".sha256", []byte(hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			if acquireSlot(t, c, "P", 0) {
				t.Fatalf("%s spill: the reloaded cell adopted the slot kept for other bytes", damage)
			}
			h, err := c.Acquire("P", 0, slotDims)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			st := c.Stats()
			if damage == "torn" && (st.DiskHits != 0 || st.Misses != 3) {
				t.Fatalf("torn spill must regenerate (2 initial + 1 regen misses, 0 disk hits), got %+v", st)
			}
			if damage == "rewritten" && (st.DiskHits != 1 || st.Misses != 2) {
				t.Fatalf("a rewritten spill that verifies is reloaded, got %+v", st)
			}
			if st.Reattached != 0 {
				t.Fatalf("%s spill: want no slot re-attached, got %+v", damage, st)
			}
			if h.Data().Float32()[3] != want.Float32()[3] {
				t.Fatal("served cell diverges from the bytes that verify")
			}
			// the rewrite must verify again
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(repaired)
			side, err := os.ReadFile(path + ".sha256")
			if err != nil {
				t.Fatal(err)
			}
			if string(side) != hex.EncodeToString(sum[:])+"\n" {
				t.Fatal("repaired spill's sidecar does not match its contents")
			}
		})
	}
}

// TestTieredSlotSurvivesEviction: an evicted cell's slot is kept beside
// its spill, and the buffer a verified reload maps adopts it — on the
// reload that hashes the spill and on the one that trusts its identity —
// so what was derived from a cell outlives its mapping.
func TestTieredSlotSurvivesEviction(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: slotCellBytes(), SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acquireSlot(t, c, "P", 0)
	for round := 1; round <= 3; round++ {
		acquireSlot(t, c, "TC", 0) // evicts P
		if !acquireSlot(t, c, "P", 0) {
			t.Fatalf("round %d: the reloaded cell did not adopt its slot: %+v", round, c.Stats())
		}
	}
	// TC's own slot came back on its reloads too: both cells took turns
	if st := c.Stats(); st.DiskHits != 5 || st.Reattached != 5 || st.KeptSlots != 1 {
		t.Fatalf("want 5 reloads, each re-attaching, and TC's slot kept, got %+v", st)
	}
}

// TestTieredSlotDroppedWithoutVerifiedReload: a kept slot is dropped when
// the cell is regenerated (its spill deleted), when the tier is closed,
// and is nowhere in a fresh tier over the same spills; a tier without a
// disk tier keeps nothing, since an evicted cell is made again.
func TestTieredSlotDroppedWithoutVerifiedReload(t *testing.T) {
	t.Run("regenerated", func(t *testing.T) {
		dir := t.TempDir()
		c, err := NewTiered(TieredConfig{CapacityBytes: slotCellBytes(), SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		acquireSlot(t, c, "P", 0)
		acquireSlot(t, c, "TC", 0)
		if err := os.Remove(filepath.Join(dir, spillName("P", 0, slotDims))); err != nil {
			t.Fatal(err)
		}
		if acquireSlot(t, c, "P", 0) {
			t.Fatal("a regenerated cell adopted the slot kept for its spill")
		}
		if st := c.Stats(); st.Misses != 3 || st.Reattached != 0 {
			t.Fatalf("want P regenerated and nothing re-attached, got %+v", st)
		}
	})
	t.Run("closed, then a fresh tier", func(t *testing.T) {
		dir := t.TempDir()
		c, err := NewTiered(TieredConfig{CapacityBytes: slotCellBytes(), SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		acquireSlot(t, c, "P", 0)
		acquireSlot(t, c, "TC", 0)
		c.Close()
		if st := c.Stats(); st.KeptSlots != 0 || st.KeptBytes != 0 {
			t.Fatalf("Close kept slots: %+v", st)
		}
		fresh, err := NewTiered(TieredConfig{CapacityBytes: slotCellBytes(), SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if acquireSlot(t, fresh, "P", 0) {
			t.Fatal("a fresh tier's reload holds a slot")
		}
		if st := fresh.Stats(); st.DiskHits != 1 || st.Reattached != 0 {
			t.Fatalf("want P reloaded with nothing re-attached, got %+v", st)
		}
	})
	t.Run("no disk tier", func(t *testing.T) {
		c, err := NewTiered(TieredConfig{CapacityBytes: slotCellBytes()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		acquireSlot(t, c, "P", 0)
		acquireSlot(t, c, "TC", 0)
		if st := c.Stats(); st.KeptSlots != 0 {
			t.Fatalf("a tier without spills kept a slot: %+v", st)
		}
		if acquireSlot(t, c, "P", 0) {
			t.Fatal("a regenerated cell holds a slot")
		}
	})
}

// TestTieredUnmanaged: a cell larger than the whole tier is served
// through without evicting the working set.
func TestTieredUnmanaged(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes()})
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Release()
	big, err := c.Acquire("P", 0, []int{8, 8, 8}) // 2 KiB > 256 B tier
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 0 || st.ResidentBytes != tieredBytes() {
		t.Fatalf("oversized cell must not thrash the tier: %+v", st)
	}
	big.Release()
	// a second acquire is a fresh miss, not a hit
	big2, err := c.Acquire("P", 0, []int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	big2.Release()
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("want 3 misses (small + 2 unmanaged), got %+v", st)
	}
}

// TestTieredConcurrentAcquire: concurrent Acquires of one cold cell
// share a single load and all observe the same pointer (run under -race).
func TestTieredConcurrentAcquire(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: 10 * tieredBytes()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	ptrs := make([]*pressio.Data, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire("W", 3, tieredDims)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = h.Data()
			h.Release()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("concurrent acquires observed different buffers")
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("want exactly 1 load, got %+v", st)
	}
}

// TestTieredBadField: loader errors propagate and don't wedge the cell.
func TestTieredBadField(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire("NOPE", 0, tieredDims); err == nil {
		t.Fatal("want error for unknown field")
	}
	// the failed key must not poison later acquires
	h, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

// TestClassifySpillErr: only a reload that proves the pair wrong may cost
// the pair. Running out of descriptors or address space, or a disk error,
// says nothing about the bytes on disk.
func TestClassifySpillErr(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want spillVerdict
	}{
		{"reloaded", nil, spillVerified},
		{"no data file", &fs.PathError{Op: "open", Path: "x.f32", Err: syscall.ENOENT}, spillAbsent},
		{"no sidecar", fmt.Errorf("read: %w", fs.ErrNotExist), spillAbsent},
		{"size drift", fmt.Errorf("%w: x.f32 is 3 bytes, want 256", errSpillCorrupt), spillCorrupt},
		{"digest drift", fmt.Errorf("%w: x.f32: digest is not its sidecar's", errSpillCorrupt), spillCorrupt},
		{"out of descriptors", &fs.PathError{Op: "open", Path: "x.f32", Err: syscall.EMFILE}, spillUnreadable},
		{"mmap out of memory", fmt.Errorf("dataset: mmap x.f32: %w", syscall.ENOMEM), spillUnreadable},
		{"permission", &fs.PathError{Op: "open", Path: "x.f32.sha256", Err: syscall.EACCES}, spillUnreadable},
		{"disk error", &fs.PathError{Op: "read", Path: "x.f32.sha256", Err: syscall.EIO}, spillUnreadable},
	}
	for _, tc := range cases {
		if got := classifySpillErr(tc.err); got != tc.want {
			t.Errorf("%s (%v): verdict %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
	// what the reload path itself reports for a short file
	dir := t.TempDir()
	short := filepath.Join(dir, "short.f32")
	if err := os.WriteFile(short, make([]byte, 12), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := mapFloat32(short, 64); classifySpillErr(err) != spillCorrupt {
		t.Errorf("a short spill file reloads with %v, want a corrupt verdict", err)
	}
	if _, _, _, _, err := mapFloat32(filepath.Join(dir, "none.f32"), 64); classifySpillErr(err) != spillAbsent {
		t.Errorf("a missing spill file reloads with %v, want an absent verdict", err)
	}
}

// TestTieredUnreadableSpillIsLeftAlone: a reload that fails without
// proving anything about the pair serves the request from the loader and
// neither deletes nor rewrites the pair, which reloads once the trouble
// has passed. The trouble here is a data path that cannot be opened (a
// symlink to itself, ELOOP) while the real file waits beside it.
func TestTieredUnreadableSpillIsLeftAlone(t *testing.T) {
	spillDir := t.TempDir()
	c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes(), SpillDir: spillDir})
	if err != nil {
		t.Fatal(err)
	}
	acquire := func(field string) float32 {
		t.Helper()
		h, err := c.Acquire(field, 0, tieredDims)
		if err != nil {
			t.Fatal(err)
		}
		v := h.Data().Float32()[3]
		h.Release()
		return v
	}
	acquire("P")
	acquire("TC") // evict P.t00 from memory
	path := filepath.Join(spillDir, spillName("P", 0, tieredDims))
	if err := os.Rename(path, path+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(path, path); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}

	want, _ := hurricane.Field("P", 0, tieredDims)
	if got := acquire("P"); got != want.Float32()[3] {
		t.Fatalf("served %v from the loader, want %v", got, want.Float32()[3])
	}
	if st := c.Stats(); st.Misses != 3 || st.DiskHits != 0 {
		t.Fatalf("want the cell regenerated (3 misses, 0 disk hits), got %+v", st)
	}
	if fi, err := os.Lstat(path); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the unreadable data path was deleted or rewritten: %v %v", fi, err)
	}
	if _, err := os.Stat(path + ".sha256"); err != nil {
		t.Fatalf("the sidecar was deleted: %v", err)
	}

	// the trouble passes: the untouched pair reloads
	if err := os.Rename(path+".aside", path); err != nil {
		t.Fatal(err)
	}
	acquire("TC")
	if got := acquire("P"); got != want.Float32()[3] {
		t.Fatalf("reloaded %v, want %v", got, want.Float32()[3])
	}
	if st := c.Stats(); st.Misses != 3 || st.DiskHits != 2 {
		t.Fatalf("want TC and P reloaded from their spills (2 disk hits), got %+v", st)
	}
}

// TestTieredConcurrentReload: goroutines thrashing a two-cell tier over
// five spilled cells reload, verify and evict at once (run under -race);
// every acquire is answered by exactly one tier with the cell's values.
func TestTieredConcurrentReload(t *testing.T) {
	c, err := NewTiered(TieredConfig{CapacityBytes: 2 * tieredBytes(), SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fields := []string{"P", "TC", "W", "U", "V"}
	want := map[string]float32{}
	for _, f := range fields {
		d, _ := hurricane.Field(f, 0, tieredDims)
		want[f] = d.Float32()[9]
	}
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f := fields[(i*(w+1)+w)%len(fields)]
				h, err := c.Acquire(f, 0, tieredDims)
				if err != nil {
					t.Error(err)
					return
				}
				if got := h.Data().Float32()[9]; got != want[f] {
					t.Errorf("%s: served %v, want %v", f, got, want[f])
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.MemHits+st.DiskHits+st.Misses != workers*rounds || st.DiskHits == 0 || st.DigestChecks > st.DiskHits {
		t.Fatalf("tiers do not account for %d acquires: %+v", workers*rounds, st)
	}
}

// TestTieredFailedSpillServesTheLoadersBuffer: a spill that cannot be
// written (its temp path is taken by a directory) costs the disk tier, not
// the request: the cell serves the loader's bytes — sealed in an anonymous
// mapping where this build has mmap, as any cell without a spill is — and
// nothing is published.
func TestTieredFailedSpillServesTheLoadersBuffer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, spillName("P", 0, tieredDims))
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	var loaded []float32
	c, err := NewTiered(TieredConfig{CapacityBytes: tieredBytes(), SpillDir: dir,
		Loader: func(field string, step int, dims []int) (*pressio.Data, error) {
			d, err := hurricane.Field(field, step, dims)
			if err == nil {
				loaded = append([]float32(nil), d.Float32()...)
			}
			return d, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Acquire("P", 0, tieredDims)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if !slices.Equal(h.Data().Float32(), loaded) {
		t.Fatal("a failed spill must serve the loader's bytes")
	}
	st := c.Stats()
	wantMapped := int64(0)
	if runtime.GOOS == "linux" {
		wantMapped = tieredBytes()
	}
	if st.Misses != 1 || st.ResidentBytes != tieredBytes() || st.MappedBytes != wantMapped {
		t.Fatalf("want one resident cell, %d bytes of it mapped, got %+v", wantMapped, st)
	}
	for _, p := range []string{path, path + ".sha256"} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: a failed spill published something: %v", p, err)
		}
	}
}
