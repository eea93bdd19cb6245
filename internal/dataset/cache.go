package dataset

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/pressio"
)

// Cache wraps another Plugin with a bounded in-memory LRU tier and an
// optional on-disk tier (.pdat files in a spill directory) — the
// local_cache stage of the paper's Figure-2 pipeline, which exploits deep
// memory hierarchies (DRAM, then node-local SSD) so that re-reading a
// dataset after a metric invalidation or a restart does not pay the cost
// of the remote filesystem again.
//
// It is the stage that wraps an arbitrary Plugin — any dtype, any rank —
// which Figure 2's folder → cache → sampler stack needs. TieredCache is
// not a replacement: it serves only 3-D float32 hurricane cells.
type Cache struct {
	inner    Plugin
	capacity int // max resident payload bytes in memory
	spillDir string

	mu    sync.Mutex
	used  int
	lru   *list.List // of cacheEntry, front = most recent
	items map[int]*list.Element

	// hit statistics for the Figure-2 benchmark
	memHits, diskHits, misses int
}

type cacheEntry struct {
	index int
	data  *pressio.Data
}

// NewCache wraps inner with capacityBytes of in-memory cache. spillDir may
// be empty to disable the disk tier; if set, evicted and loaded entries
// are persisted there and served back without consulting inner.
func NewCache(inner Plugin, capacityBytes int, spillDir string) (*Cache, error) {
	if capacityBytes < 0 {
		return nil, fmt.Errorf("cache: negative capacity")
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return &Cache{
		inner:    inner,
		capacity: capacityBytes,
		spillDir: spillDir,
		lru:      list.New(),
		items:    make(map[int]*list.Element),
	}, nil
}

// Name implements Plugin.
func (c *Cache) Name() string { return "cache" }

// Len implements Plugin.
func (c *Cache) Len() int { return c.inner.Len() }

// LoadMetadata implements Plugin, delegating to the inner loader
// (metadata is cheap; only payloads are cached).
func (c *Cache) LoadMetadata(i int) (Metadata, error) { return c.inner.LoadMetadata(i) }

// LoadMetadataAll implements Plugin.
func (c *Cache) LoadMetadataAll() ([]Metadata, error) { return c.inner.LoadMetadataAll() }

// LoadData implements Plugin: memory tier, then disk tier, then inner.
func (c *Cache) LoadData(i int) (*pressio.Data, error) {
	c.mu.Lock()
	if el, ok := c.items[i]; ok {
		c.lru.MoveToFront(el)
		d := el.Value.(cacheEntry).data
		c.memHits++
		c.mu.Unlock()
		return d, nil
	}
	c.mu.Unlock()

	if c.spillDir != "" {
		if d, err := c.readSpill(i); err == nil {
			c.mu.Lock()
			c.diskHits++
			c.mu.Unlock()
			c.insert(i, d)
			return d, nil
		}
	}

	d, err := c.inner.LoadData(i)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	if c.spillDir != "" {
		if err := c.writeSpill(i, d); err != nil {
			return nil, err
		}
	}
	c.insert(i, d)
	return d, nil
}

// LoadDataAll implements Plugin.
func (c *Cache) LoadDataAll() ([]*pressio.Data, error) { return loadDataAll(c) }

// Stats returns (memory hits, disk hits, misses).
func (c *Cache) Stats() (memHits, diskHits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memHits, c.diskHits, c.misses
}

func (c *Cache) insert(i int, d *pressio.Data) {
	size := d.ByteSize()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[i]; ok {
		c.lru.MoveToFront(el)
		return
	}
	if size > c.capacity {
		return // larger than the whole tier: serve through, don't thrash
	}
	for c.used+size > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		entry := back.Value.(cacheEntry)
		c.lru.Remove(back)
		delete(c.items, entry.index)
		c.used -= entry.data.ByteSize()
	}
	c.items[i] = c.lru.PushFront(cacheEntry{index: i, data: d})
	c.used += size
}

func (c *Cache) spillPath(i int) string {
	return filepath.Join(c.spillDir, fmt.Sprintf("entry-%06d.pdat", i))
}

func (c *Cache) readSpill(i int) (*pressio.Data, error) {
	raw, err := os.ReadFile(c.spillPath(i))
	if err != nil {
		return nil, err
	}
	var d pressio.Data
	if err := d.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return &d, nil
}

func (c *Cache) writeSpill(i int, d *pressio.Data) error {
	raw, err := d.MarshalBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(c.spillPath(i), raw)
}

// SetOptions implements Plugin, forwarding to the inner loader.
func (c *Cache) SetOptions(o pressio.Options) error { return c.inner.SetOptions(o) }

// Options implements Plugin.
func (c *Cache) Options() pressio.Options {
	o := c.inner.Options()
	o.Set("cache:capacity", int64(c.capacity))
	o.Set("cache:spill_dir", c.spillDir)
	return o
}
