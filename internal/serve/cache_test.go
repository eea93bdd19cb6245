package serve

import (
	"container/list"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU[string, string](2)
	c.add("a", "s1")
	c.add("b", "s1")
	if _, ok := c.get("a"); !ok { // refresh a → b is now oldest
		t.Fatal("a should be cached")
	}
	c.add("c", "s2")
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as least-recently-used")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should survive (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be cached")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestLRUCacheEvictIf(t *testing.T) {
	c := newLRU[string, string](8)
	c.add("a", "stale")
	c.add("b", "fresh")
	c.add("c", "stale")
	n := c.evictIf(func(v string) bool { return v == "stale" })
	if n != 2 {
		t.Errorf("evicted %d, want 2", n)
	}
	if _, ok := c.get("b"); !ok {
		t.Error("fresh entry should survive")
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}

// refLRU is the textbook LRU the slab one is held to: a container/list
// in recency order, front the most recent, and a map to its elements.
type refLRU struct {
	cap   int
	ll    *list.List // values are [2]int{key, value}
	items map[int]*list.Element
}

func (r *refLRU) get(k int) (int, bool) {
	el, ok := r.items[k]
	if !ok {
		return 0, false
	}
	r.ll.MoveToFront(el)
	return el.Value.([2]int)[1], true
}

// add stores k and returns the key it evicted, or -1.
func (r *refLRU) add(k, v int) int {
	if el, ok := r.items[k]; ok {
		el.Value = [2]int{k, v}
		r.ll.MoveToFront(el)
		return -1
	}
	r.items[k] = r.ll.PushFront([2]int{k, v})
	if r.ll.Len() <= r.cap {
		return -1
	}
	oldest := r.ll.Remove(r.ll.Back()).([2]int)[0]
	delete(r.items, oldest)
	return oldest
}

func (r *refLRU) evictIf(pred func(int) bool) int {
	n := 0
	for el := r.ll.Front(); el != nil; {
		next := el.Next()
		if kv := el.Value.([2]int); pred(kv[1]) {
			r.ll.Remove(el)
			delete(r.items, kv[0])
			n++
		}
		el = next
	}
	return n
}

// order lists the keys most recent first.
func (r *refLRU) order() []int {
	var keys []int
	for el := r.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.([2]int)[0])
	}
	return keys
}

// order lists the slab LRU's keys most recent first.
func (c *lru[K, V]) order() []K {
	var keys []K
	for i := c.head; i >= 0; i = c.slab[i].next {
		keys = append(keys, c.slab[i].key)
	}
	return keys
}

// TestLRUMatchesReference drives the slab LRU and the reference with one
// seeded stream of gets, adds and evictIfs: every get hits or misses
// alike with the same value, every add evicts the same key, evictIf drops
// as many, len agrees, and so does the whole recency order.
func TestLRUMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		c := newLRU[int, int](capacity)
		ref := &refLRU{cap: capacity, ll: list.New(), items: map[int]*list.Element{}}
		keys := capacity*2 + 1
		for op := 0; op < 2000; op++ {
			k := rng.Intn(keys)
			switch r := rng.Intn(20); {
			case r < 9:
				v, ok := c.get(k)
				wv, wok := ref.get(k)
				if ok != wok || v != wv {
					t.Fatalf("seed %d op %d: get(%d) = %d, %v; reference %d, %v", seed, op, k, v, ok, wv, wok)
				}
			case r < 19:
				v := rng.Intn(1000)
				evicts := -1 // the key this add pushes out
				if _, had := c.index[k]; !had && c.n == capacity {
					evicts = c.slab[c.tail].key
				}
				c.add(k, v)
				if want := ref.add(k, v); evicts != want {
					t.Fatalf("seed %d op %d: add(%d) evicted %d, reference %d", seed, op, k, evicts, want)
				}
			default:
				m := 2 + rng.Intn(5)
				pred := func(v int) bool { return v%m == 0 }
				if n, want := c.evictIf(pred), ref.evictIf(pred); n != want {
					t.Fatalf("seed %d op %d: evictIf dropped %d, reference %d", seed, op, n, want)
				}
			}
			if c.len() != ref.ll.Len() {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, c.len(), ref.ll.Len())
			}
			if got, want := c.order(), ref.order(); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: recency %v, reference %v", seed, op, got, want)
			}
		}
	}
}

// TestLRUEvictIfSlotsAreReused: the slots evictIf frees hold nothing of
// what was there, and the adds after it fill them before the slab grows.
func TestLRUEvictIfSlotsAreReused(t *testing.T) {
	c := newLRU[int, string](8)
	for k := 0; k < 6; k++ {
		c.add(k, "stale")
	}
	if n := c.evictIf(func(v string) bool { return v == "stale" }); n != 6 {
		t.Fatalf("evicted %d, want 6", n)
	}
	for i, e := range c.slab {
		if e.val != "" {
			t.Errorf("freed slot %d still holds %q", i, e.val)
		}
	}
	for k := 10; k < 16; k++ {
		c.add(k, "fresh")
	}
	if len(c.slab) != 6 || c.len() != 6 {
		t.Errorf("six adds after six evictions: slab of %d, len %d; want both 6", len(c.slab), c.len())
	}
	c.add(16, "fresh")
	c.add(17, "fresh")
	c.add(18, "fresh") // past capacity: reuses the least recent slot
	if len(c.slab) != 8 || c.len() != 8 {
		t.Errorf("slab of %d, len %d; want both 8, the capacity", len(c.slab), c.len())
	}
	if _, ok := c.get(10); ok {
		t.Error("the least recent entry survived an add into a full cache")
	}
}

// TestLRUConcurrent: gets, adds and evictIfs from several goroutines at
// once keep the list, the index and the count consistent (run it under
// -race).
func TestLRUConcurrent(t *testing.T) {
	c := newLRU[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for op := 0; op < 2000; op++ {
				k := rng.Intn(40)
				switch rng.Intn(10) {
				case 0:
					c.evictIf(func(v int) bool { return v == k })
				case 1, 2, 3, 4:
					c.add(k, k%7)
				default:
					if v, ok := c.get(k); ok && v != k%7 {
						t.Errorf("get(%d) = %d, want %d", k, v, k%7)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	keys := c.order()
	if len(keys) != c.len() || len(c.index) != c.len() || c.len() > 16 {
		t.Fatalf("recency list of %d, index of %d, len %d (capacity 16)", len(keys), len(c.index), c.len())
	}
	for _, k := range keys {
		if v, ok := c.get(k); !ok || v != k%7 {
			t.Errorf("listed key %d: get = %d, %v", k, v, ok)
		}
	}
}
