package serve

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/stats"
)

// workerPool runs submitted tasks on a fixed number of goroutines above a
// bounded queue. When the queue is full, trySubmit refuses immediately —
// the backpressure signal the HTTP layer turns into 429 + Retry-After —
// instead of letting latency grow without bound under overload.
type workerPool struct {
	mu      sync.Mutex
	tasks   chan func()
	wg      sync.WaitGroup
	closed  bool
	workers int
	took    ring // recent task durations (ms), retryAfter's other input
}

func newWorkerPool(workers, queueDepth int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &workerPool{tasks: make(chan func(), queueDepth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				start := time.Now()
				task()
				p.observe(time.Since(start))
			}
		}()
	}
	return p
}

// observe records one task's duration.
func (p *workerPool) observe(d time.Duration) {
	p.mu.Lock()
	p.took.add(d.Seconds() * 1e3)
	p.mu.Unlock()
}

// retryAfter derives an honest Retry-After, in seconds, from the pool's
// live backpressure: the tasks queued ahead of a retry times the pool's
// median recent task duration, spread over its workers, clamped to
// [lo, hi] — lo until a task has been timed.
func (p *workerPool) retryAfter(lo, hi int) string {
	p.mu.Lock()
	p50 := stats.Quantile(p.took.samples, 0.50)
	p.mu.Unlock()
	secs := int(math.Ceil(float64(p.pending()+1) * p50 / 1e3 / float64(p.workers)))
	return strconv.Itoa(min(max(secs, lo), hi))
}

// trySubmit enqueues the task if a queue slot is free; false means the
// pool is saturated (or draining) and the caller should shed load.
func (p *workerPool) trySubmit(task func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- task:
		return true
	default:
		return false
	}
}

// pending reports how many submitted tasks are still waiting for a
// worker — the queue-depth input of the adaptive Retry-After.
func (p *workerPool) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.tasks)
}

// isClosed reports whether drain has begun (no new work is accepted).
func (p *workerPool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// drain stops accepting work and blocks until every queued task has run —
// the graceful-shutdown path.
func (p *workerPool) drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
