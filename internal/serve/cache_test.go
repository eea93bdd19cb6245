package serve

import (
	"sync/atomic"
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

func TestWorkerPoolBackpressureAndDrain(t *testing.T) {
	p := newWorkerPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	if !p.trySubmit(func() { close(started); <-block; ran.Add(1) }) {
		t.Fatal("first submit should fit")
	}
	<-started
	if !p.trySubmit(func() { ran.Add(1) }) {
		t.Fatal("second submit should queue")
	}
	if p.trySubmit(func() {}) {
		t.Error("third submit should be refused: worker busy, queue full")
	}
	close(block)
	p.drain()
	if ran.Load() != 2 {
		t.Errorf("ran %d tasks, want 2", ran.Load())
	}
	if p.trySubmit(func() {}) {
		t.Error("a drained pool must refuse work")
	}
}
