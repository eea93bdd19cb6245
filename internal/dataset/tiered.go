package dataset

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/hurricane"
	"repro/internal/pressio"
)

// TieredCache is the paper's loader → local_cache tier rebuilt for the
// serving hot path: a byte-budgeted, refcounted cache of hurricane field
// buffers keyed by (field, step, dims), with an mmap-backed disk tier.
//
// It is not a Plugin and does not replace Cache, the stage that wraps one
// (any dtype, any rank): it serves 3-D float32 hurricane cells only. Five
// properties distinguish it:
//
//   - Identity. Every Acquire of a resident cell observes the SAME
//     *pressio.Data, and a buffer carries what was computed from it in
//     its derived-value slot (the fused stats.Summary, the results of
//     error-agnostic metrics), so requests over one cell share that work
//     for as long as the cell stays in the memory tier — the
//     cross-request amortization §4.1 of the paper argues prediction
//     cost rests on. A cell reloaded from the disk tier is a new buffer
//     and starts empty.
//   - Zero-copy reload. Spilled cells are raw little-endian .f32 files in
//     the exact corpus naming convention of WriteRaw/BuildCorpus
//     ("P.t07_8x8x8.f32"), so a spill file's digest equals the corpus
//     manifest's digest for the same cell. Reload mmaps the file
//     read-only and reinterprets it in place, so a reader that samples
//     the cell faults in only the pages it touches.
//   - One resident form. A freshly loaded cell is served as a read-only
//     mapping and the loader's heap buffer is dropped: the Go heap holds
//     no resident cell, with or without a disk tier. With one, the
//     mapping is of the spill file just written for the cell, taken from
//     the descriptor that wrote it, and counts in RSS as clean file pages
//     the kernel can reclaim; without one, or where the spill write or
//     its map fails, the cell is copied into an anonymous mapping sealed
//     PROT_READ. Either way a stray write faults, and resident cells cost
//     at most CapacityBytes of RSS, once: the collector's heap goal does
//     not double them. What that costs is a smaller heap goal, so a path
//     that allocates heavily collects more often. Only builds without
//     mmap (mmap_other.go) keep heap buffers.
//   - Verified once per file, not once per reload. A SHA-256 sidecar is
//     written with every spill, and a spill is hashed against it the
//     first time this process reloads it and whenever what the kernel
//     says about the file has changed; a torn or tampered spill is
//     regenerated instead of served. What is TRUSTED in between: a file
//     whose device, inode, size, mtime and ctime (fstat of the very
//     descriptor that is mapped; ctime cannot be set back from user
//     space) are those of the bytes that verified, and whose ctime the
//     filesystem's clock had already moved past when they did (fsClock:
//     a later change cannot then share it, however coarse the
//     timestamps) — exactly what a live MAP_PRIVATE mapping already
//     trusts between its hash and its last read: the page cache under an
//     unchanged inode. What is NOT: anything across a restart (a new process
//     remembers nothing, so a write torn by a crash is always hashed),
//     any rewrite (spills are written by rename, so a rewrite is a new
//     inode), any change of identity, and any platform or path without
//     mmap, which has no identity and hashes every time.
//   - Refcounts. Data is mmap-backed, so "evicted" cannot mean
//     "garbage collected eventually": handles pin the mapping, and the
//     region is unmapped only when the entry has left the cache and the
//     last Handle is released. Nor can the collector free a cache it no
//     longer reaches: Close unmaps what the cache holds.
//
// Loads of the same cell are single-flighted: concurrent Acquires share
// one synthesis/mmap.
type TieredCache struct {
	capacity int64
	spillDir string
	loader   func(field string, step int, dims []int) (*pressio.Data, error)

	mu       sync.Mutex
	entries  map[tieredKey]*tieredEntry
	lru      *list.List                 // of *tieredEntry, front = most recent
	used     int64                      // resident payload bytes across lru members
	mapped   int64                      // live mmap-backed bytes (resident or handle-pinned)
	verified map[tieredKey]fileIdentity // spill files whose digest this process has checked
	closed   bool                       // Close has run: Acquire errors, a settling load is not admitted

	memHits, diskHits, misses, evictions, digestChecks uint64
}

// fileIdentity is what the kernel reports (fstat) about the descriptor a
// spill was mapped from. Equal identities mean the bytes that verified
// are the bytes mapped now; the zero value is "no identity" (no mmap on
// this platform or path) and equals nothing.
type fileIdentity struct {
	dev, ino     uint64
	size         int64
	mtime, ctime int64 // ns since the epoch
}

// TieredConfig configures NewTiered; the zero Loader synthesizes
// canonical (seed 0) hurricane fields, matching what BuildCorpus writes
// at seed 0.
type TieredConfig struct {
	// CapacityBytes bounds resident payload bytes in the memory tier.
	CapacityBytes int64
	// SpillDir enables the disk tier when non-empty.
	SpillDir string
	// Loader regenerates a cell on a full miss (default hurricane.Field).
	Loader func(field string, step int, dims []int) (*pressio.Data, error)
}

// TieredStats is the cache's observable state, shaped for /statz.
type TieredStats struct {
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// DigestChecks counts the reloads that hashed their spill file; the
	// other disk hits were served on a remembered identity.
	DigestChecks  uint64 `json:"digest_checks"`
	ResidentBytes int64  `json:"resident_bytes"`
	// MappedBytes counts every live mapping — spill files and the
	// anonymous ones of cells without a spill — resident or pinned
	// outside the memory tier; it equals ResidentBytes unless a cell is
	// pinned there (evicted, larger than the tier, or closed over) or
	// this build has no mmap.
	MappedBytes int64 `json:"mapped_bytes"`
}

type tieredKey struct {
	field      string
	step       int
	d0, d1, d2 int
}

type tieredEntry struct {
	key   tieredKey
	ready chan struct{} // closed when the load settles
	err   error

	// set before ready closes, immutable afterwards
	data  *pressio.Data
	raw   []byte // the mapping data lives in, unmapped when the entry dies; nil for a heap buffer
	bytes int64

	// guarded by TieredCache.mu
	refs int           // outstanding handles (the loader holds one)
	elem *list.Element // LRU membership; nil once evicted or unmanaged
}

// NewTiered builds the cache, creating the spill directory if needed.
func NewTiered(cfg TieredConfig) (*TieredCache, error) {
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("dataset: tiered: negative capacity")
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("dataset: tiered: %w", err)
		}
	}
	loader := cfg.Loader
	if loader == nil {
		loader = hurricane.Field
	}
	return &TieredCache{
		capacity: cfg.CapacityBytes,
		spillDir: cfg.SpillDir,
		loader:   loader,
		entries:  map[tieredKey]*tieredEntry{},
		lru:      list.New(),
		verified: map[tieredKey]fileIdentity{},
	}, nil
}

// Handle pins one cell of the cache. Data stays valid until Release;
// Release is idempotent. Do not retain the Data pointer past Release —
// the backing region is unmapped once the entry is both evicted (or its
// cache closed) and unpinned.
type Handle struct {
	c    *TieredCache
	e    *tieredEntry
	once sync.Once
}

// Data returns the pinned buffer.
func (h *Handle) Data() *pressio.Data { return h.e.data }

// Release unpins the cell.
func (h *Handle) Release() { h.once.Do(func() { h.c.release(h.e) }) }

// Acquire pins (field, step, dims), loading through the tiers on a miss:
// memory, then the mmap disk tier, then the loader. dims must be 3-D
// (the hurricane grid). Concurrent Acquires of an in-flight cell share
// the load and count as memory hits.
func (c *TieredCache) Acquire(field string, step int, dims []int) (*Handle, error) {
	if len(dims) != 3 {
		return nil, fmt.Errorf("dataset: tiered: want 3 dims, got %v", dims)
	}
	k := tieredKey{field: field, step: step, d0: dims[0], d1: dims[1], d2: dims[2]}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errTieredClosed
	}
	if e, ok := c.entries[k]; ok {
		e.refs++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.release(e)
			return nil, e.err
		}
		c.mu.Lock()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.memHits++
		c.mu.Unlock()
		return &Handle{c: c, e: e}, nil
	}
	e := &tieredEntry{key: k, ready: make(chan struct{}), refs: 1}
	c.entries[k] = e
	c.mu.Unlock()

	c.load(e, dims)
	if e.err != nil {
		c.release(e)
		return nil, e.err
	}
	return &Handle{c: c, e: e}, nil
}

// errTieredClosed is Acquire's answer once Close has run.
var errTieredClosed = errors.New("dataset: tiered: cache is closed")

// load settles an entry outside the lock (synthesis can take tens of
// milliseconds), then admits it under the lock.
func (c *TieredCache) load(e *tieredEntry, dims []int) {
	data, raw, fromDisk, err := c.loadTiers(e.key, dims)
	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.entries, e.key)
	} else {
		e.data, e.raw = data, raw
		e.bytes = int64(data.ByteSize())
		c.mapped += int64(len(e.raw))
		if fromDisk {
			c.diskHits++
		} else {
			c.misses++
		}
		c.admit(e)
	}
	c.mu.Unlock()
	close(e.ready)
}

// admit inserts a loaded entry into the memory tier, evicting from the
// LRU tail to fit. An entry larger than the whole tier, or one that
// settles after Close, is served unmanaged: it leaves the map at once and
// dies with its last handle. Called with c.mu held.
func (c *TieredCache) admit(e *tieredEntry) {
	if e.bytes > c.capacity || c.closed {
		delete(c.entries, e.key)
		return
	}
	for c.used+e.bytes > c.capacity && c.lru.Len() > 0 {
		victim := c.lru.Back().Value.(*tieredEntry)
		c.lru.Remove(victim.elem)
		victim.elem = nil
		delete(c.entries, victim.key)
		c.used -= victim.bytes
		c.evictions++
		if victim.refs == 0 {
			c.free(victim)
		}
	}
	e.elem = c.lru.PushFront(e)
	c.used += e.bytes
}

// release drops one handle reference; the last reference on an entry
// that has left the cache frees its backing.
func (c *TieredCache) release(e *tieredEntry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && e.elem == nil {
		c.free(e)
	}
	c.mu.Unlock()
}

// free returns an entry's backing storage. Called with c.mu held; munmap
// is a fast syscall, so holding the lock across it is fine.
func (c *TieredCache) free(e *tieredEntry) {
	if e.raw != nil {
		c.mapped -= int64(len(e.raw))
		unmapRaw(e.raw)
	}
	e.raw = nil
	e.data = nil
}

// Close empties the memory tier: every unpinned cell is unmapped now,
// each pinned one at its last Release, and a load still settling dies
// with its handles. Acquire fails from then on. The disk tier is left as
// it is. A mapping is not garbage a collector can find, so a cache whose
// owner is done with it must be closed; one kept for the life of the
// process need not be. Close is idempotent.
func (c *TieredCache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Front()).(*tieredEntry)
		e.elem = nil
		delete(c.entries, e.key)
		c.used -= e.bytes
		if e.refs == 0 {
			c.free(e)
		}
	}
}

// Stats snapshots the tier counters.
func (c *TieredCache) Stats() TieredStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TieredStats{
		MemHits:       c.memHits,
		DiskHits:      c.diskHits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		DigestChecks:  c.digestChecks,
		ResidentBytes: c.used,
		MappedBytes:   c.mapped,
	}
}

// loadTiers reads through disk then loader, spilling loader results —
// unless the reload failed for a reason that says nothing about the pair
// on disk, which is then left exactly as it is. raw is the mapping data
// lives in, nil where this build leaves it a heap buffer.
func (c *TieredCache) loadTiers(k tieredKey, dims []int) (data *pressio.Data, raw []byte, fromDisk bool, err error) {
	spill := c.spillDir != ""
	if spill {
		path := filepath.Join(c.spillDir, spillName(k.field, k.step, dims))
		d, m, mp, err := c.readSpillTier(k, path, dims)
		switch classifySpillErr(err) {
		case spillVerified:
			if !mp { // the copying reload path: m is the file's bytes
				d, m = seal(d, dims)
			}
			return d, m, true, nil
		case spillCorrupt:
			c.dropSpill(k, path)
		case spillUnreadable:
			spill = false
		}
	}
	d, err := c.loader(k.field, k.step, dims)
	if err != nil {
		return nil, nil, false, err
	}
	if spill {
		// spill failures degrade the disk tier, not the request: the
		// loaded buffer is still correct, the next miss just regenerates.
		// A spill that could be mapped is served as that mapping: the
		// cell is resident once, as clean file pages.
		if m, err := c.writeSpillTier(k.field, k.step, d); err == nil && m != nil {
			return pressio.FromFloat32(float32View(m), dims...), m, false, nil
		}
	}
	d, m := seal(d, dims)
	return d, m, false, nil
}

// seal moves a float32 cell off the Go heap into a sealed anonymous
// mapping (mapSealed), leaving the loader's buffer to the collector; a
// cell it cannot move is returned as it is, with no mapping.
func seal(d *pressio.Data, dims []int) (*pressio.Data, []byte) {
	if d.DType() == pressio.DTypeFloat32 && d.Len() > 0 {
		if m := mapSealed(float32Bytes(d.Float32())); m != nil {
			return pressio.FromFloat32(float32View(m), dims...), m
		}
	}
	return d, nil
}

// float32Bytes is v's own memory as bytes: a cell's raw little-endian
// encoding on a little-endian host. v must not be empty.
func float32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// float32View reinterprets a mapping as the float32 values it holds, in
// place; m must not be empty. Every mapped cell is read through it.
func float32View(m []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&m[0])), len(m)/4)
}

// liveMappings counts the regions the tiered caches of this process have
// mapped and not yet unmapped.
var liveMappings atomic.Int64

// LiveMappings reports how many regions the tiered caches of this process
// hold mapped — resident cells, and evicted or closed-over cells still
// pinned — so a caller can check that what it built and closed left none.
func LiveMappings() int64 { return liveMappings.Load() }

// spillName is the on-disk base name of a spilled cell — identical to
// what BuildCorpus writes through WriteRaw for the same cell, so spill
// digests can be pinned against a corpus manifest.
func spillName(field string, step int, dims []int) string {
	return fmt.Sprintf("%s.t%02d_%dx%dx%d.f32", field, step, dims[0], dims[1], dims[2])
}

// errSpillCorrupt marks a reload failure that proves the pair on disk
// does not hold the cell: the data file has the wrong size, or its
// digest is not the sidecar's.
var errSpillCorrupt = errors.New("dataset: spill does not verify")

// spillVerdict is what the outcome of a reload says about the pair on
// disk, and so what may be done to it.
type spillVerdict int

const (
	spillVerified   spillVerdict = iota // reloaded: serve it
	spillAbsent                         // no data file or no sidecar: regenerate and write a pair
	spillCorrupt                        // proven inconsistent: drop the pair, then as spillAbsent
	spillUnreadable                     // the reload failed, not the pair (EMFILE, ENOMEM from mmap, EIO, ...): regenerate, leave the pair alone
)

func classifySpillErr(err error) spillVerdict {
	switch {
	case err == nil:
		return spillVerified
	case errors.Is(err, fs.ErrNotExist):
		return spillAbsent
	case errors.Is(err, errSpillCorrupt):
		return spillCorrupt
	}
	return spillUnreadable
}

// readSpillTier reloads a spilled cell via mmap. A file whose identity is
// the one that verified before is served as mapped; any other is hashed
// against its SHA-256 sidecar first (see the type comment for what that
// trusts), and its identity remembered if the digest matches and a later
// change could not share the file's ctime. The error says what was
// learned: fs.ErrNotExist, an
// errSpillCorrupt (size drift, digest drift — e.g. a write torn by a
// crash), or whatever kept the file from being opened, mapped or read.
func (c *TieredCache) readSpillTier(k tieredKey, path string, dims []int) (*pressio.Data, []byte, bool, error) {
	fl, raw, isMapped, id, err := mapFloat32(path, dims[0]*dims[1]*dims[2])
	if err != nil {
		return nil, nil, false, err
	}
	hasID := id != fileIdentity{}
	c.mu.Lock()
	trusted := hasID && c.verified[k] == id
	c.mu.Unlock()
	if !trusted {
		// A file changed inside the timestamp tick of its own last change
		// keeps its ctime, so the check is remembered only if that tick
		// is over — read off the filesystem's clock BEFORE the bytes are
		// hashed: whatever changes them afterwards is stamped later. A
		// file too young is simply hashed again on its next reload.
		settled := false
		if hasID {
			clock, err := fsClock(c.spillDir)
			settled = err == nil && clock > id.ctime
		}
		if err := c.checkDigest(path, raw); err != nil {
			if isMapped {
				unmapRaw(raw)
			}
			return nil, nil, false, err
		}
		if settled {
			c.mu.Lock()
			c.verified[k] = id
			c.mu.Unlock()
		}
	}
	return pressio.FromFloat32(fl, dims...), raw, isMapped, nil
}

// checkDigest hashes raw against path's sidecar.
func (c *TieredCache) checkDigest(path string, raw []byte) error {
	want, err := os.ReadFile(path + ".sha256")
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.digestChecks++
	c.mu.Unlock()
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != strings.TrimSpace(string(want)) {
		return fmt.Errorf("%w: %s: digest is not its sidecar's", errSpillCorrupt, path)
	}
	return nil
}

// writeSpillTier persists a cell in the corpus writer's encoding and
// naming (so bytes and names match BuildCorpus exactly) and then its
// digest sidecar, hashed from the bytes in hand. On a little-endian host
// a float32 cell's own memory is those bytes; only other hosts and dtypes
// pay encodeRaw's copy. Both files are published by rename, so a rewrite
// never truncates a file under a mapping still pinned to it, and ordering
// makes a crash between the two safe: data without a sidecar is invisible
// to readSpillTier, and stale data under a fresh rewrite is caught by the
// digest.
//
// It returns a read-only mapping of the data file, taken from the
// descriptor that wrote it (so it is the inode just published, and its
// bytes are the ones hashed), or a nil m where the reload path would copy
// or the map failed. No identity is remembered: the file's first reload
// hashes it, as any other.
func (c *TieredCache) writeSpillTier(field string, step int, d *pressio.Data) (m []byte, err error) {
	var path string
	var buf []byte
	inPlace := hostLittleEndian && d.DType() == pressio.DTypeFloat32 && d.Len() > 0
	if inPlace {
		path = filepath.Join(c.spillDir, spillName(field, step, d.Dims()))
		buf = float32Bytes(d.Float32())
	} else if path, buf, err = encodeRaw(c.spillDir, fmt.Sprintf("%s.t%02d", field, step), d); err != nil {
		return nil, err
	}
	if m, err = writeMapped(path, buf, inPlace); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf)
	if err := writeFileAtomic(path+".sha256", []byte(hex.EncodeToString(sum[:])+"\n")); err != nil {
		if m != nil {
			unmapRaw(m)
		}
		return nil, err
	}
	return m, nil
}

// dropSpill deletes a pair that proved inconsistent and forgets that it
// ever verified.
func (c *TieredCache) dropSpill(k tieredKey, path string) {
	os.Remove(path)
	os.Remove(path + ".sha256")
	c.mu.Lock()
	delete(c.verified, k)
	c.mu.Unlock()
}

// hostLittleEndian reports the native byte order once at init; raw .f32
// files are little-endian, so only a little-endian host may write a
// cell's memory as its file or reinterpret a mapping in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// readFloat32 is the copying reload path: decode a raw little-endian
// .f32 file into a fresh slice. Used on platforms without mmap support
// and on big-endian hosts where in-place reinterpretation is wrong.
func readFloat32(path string, n int) ([]float32, []byte, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	if len(raw) != 4*n {
		return nil, nil, false, fmt.Errorf("%w: %s is %d bytes, want %d", errSpillCorrupt, path, len(raw), 4*n)
	}
	fl := make([]float32, n)
	for i := range fl {
		fl[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return fl, raw, false, nil
}
