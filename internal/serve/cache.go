package serve

import (
	"container/list"
	"sync"
)

// lru is a fixed-capacity least-recently-used map. Safe for concurrent
// use; a hit is one lock, one map lookup, one move-to-front. A batch
// looks up each distinct cell once, at its first occurrence, and its
// repeats copy that answer (predictBatchItems): a batch touches the
// recency of each of its cells once, in first-occurrence order.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent; values are *lruItem[K, V]
	items map[K]*list.Element
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{cap: capacity, ll: list.New(), items: map[K]*list.Element{}}
}

func (c *lru[K, V]) get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

func (c *lru[K, V]) add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruItem[K, V]{key: k, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem[K, V]).key)
	}
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evictIf removes every entry whose value the predicate matches and
// returns how many were dropped — the invalidation hook.
func (c *lru[K, V]) evictIf(pred func(V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		item := el.Value.(*lruItem[K, V])
		if pred(item.val) {
			c.ll.Remove(el)
			delete(c.items, item.key)
			n++
		}
		el = next
	}
	return n
}
