package serve

import "sync"

// lru is a fixed-capacity least-recently-used map. Safe for concurrent
// use; a hit is one lock, one map lookup, one relink. A batch looks up
// each distinct cell once, at its first occurrence, and its repeats copy
// that answer (predictBatchItems): a batch touches the recency of each
// of its cells once, in first-occurrence order.
//
// The entries live in a slab, linked by index in recency order. An add
// past capacity reuses the slot of the entry it evicts, and a slot
// evictIf frees goes to a later add, so the slab grows to the capacity
// at most (as entries arrive, not up front) and an add into a full
// cache allocates nothing.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	slab  []lruEntry[K, V]
	index map[K]int32 // key → its slot
	n     int         // live entries
	// head and tail are the most and least recent slots, free the first
	// freed one (chained through next); each -1 when there is none
	head, tail, free int32
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32 // towards head and tail, or -1
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: max(capacity, 1), index: map[K]int32{}, head: -1, tail: -1, free: -1}
}

// unlink takes slot i out of the recency list.
func (c *lru[K, V]) unlink(i int32) {
	e := &c.slab[i]
	if e.prev >= 0 {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links slot i in as the most recent.
func (c *lru[K, V]) pushFront(i int32) {
	e := &c.slab[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *lru[K, V]) get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[k]
	if !ok {
		return v, false
	}
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
	return c.slab[i].val, true
}

func (c *lru[K, V]) add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[k]
	switch {
	case ok:
		c.unlink(i)
	case c.free >= 0:
		i, c.free = c.free, c.slab[c.free].next
		c.n++
	case len(c.slab) < c.cap:
		i = int32(len(c.slab))
		c.slab = append(c.slab, lruEntry[K, V]{})
		c.n++
	default: // full: the least recent entry gives up its slot
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slab[i].key)
	}
	c.slab[i].key, c.slab[i].val = k, v
	c.pushFront(i)
	c.index[k] = i
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// evictIf removes every entry whose value the predicate matches and
// returns how many were dropped — the invalidation hook. Their slots are
// zeroed, so the slab keeps nothing of them alive, and kept for the next
// adds.
func (c *lru[K, V]) evictIf(pred func(V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for i := c.head; i >= 0; {
		next := c.slab[i].next
		if pred(c.slab[i].val) {
			c.unlink(i)
			delete(c.index, c.slab[i].key)
			c.slab[i] = lruEntry[K, V]{next: c.free}
			c.free = i
			dropped++
		}
		i = next
	}
	c.n -= dropped
	return dropped
}
