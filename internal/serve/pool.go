package serve

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// taskTimes keeps a pool's recent task durations, the input an honest
// Retry-After is derived from.
type taskTimes struct {
	mu      sync.Mutex
	took    ring // recent task durations (ms)
	workers int
}

// observe records one task's duration.
func (t *taskTimes) observe(d time.Duration) {
	t.mu.Lock()
	t.took.add(d.Seconds() * 1e3)
	t.mu.Unlock()
}

// quote derives a Retry-After, in seconds, from the pool's live
// backpressure: the pending tasks ahead of a retry times the median
// recent task duration, spread over the workers, clamped to [lo, hi] —
// lo until a task has been timed.
func (t *taskTimes) quote(pending, lo, hi int) string {
	t.mu.Lock()
	p50 := stats.Quantile(t.took.samples, 0.50)
	t.mu.Unlock()
	secs := int(math.Ceil(float64(pending+1) * p50 / 1e3 / float64(t.workers)))
	return strconv.Itoa(min(max(secs, lo), hi))
}

// workerPool runs submitted tasks on a fixed number of goroutines above a
// bounded queue — the fit pool, whose jobs outlive the request that
// submitted them. When the queue is full, trySubmit refuses immediately
// — the backpressure signal the HTTP layer turns into 429 + Retry-After
// — instead of letting latency grow without bound under overload.
type workerPool struct {
	taskTimes
	tasks  chan func()
	wg     sync.WaitGroup
	closed bool // under taskTimes.mu
}

func newWorkerPool(workers, queueDepth int) *workerPool {
	workers, queueDepth = max(workers, 1), max(queueDepth, 0)
	p := &workerPool{taskTimes: taskTimes{workers: workers}, tasks: make(chan func(), queueDepth)}
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

// retryAfter quotes the queued tasks ahead of a retry.
func (p *workerPool) retryAfter(lo, hi int) string { return p.quote(p.pending(), lo, hi) }

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

// errSaturated is enter's refusal: every run slot is held and the
// queue of waiters is full, or the pool is draining.
var errSaturated = errors.New("saturated")

// slotPool bounds the predictions that run at once: a caller takes one
// of workers run slots and computes on its own goroutine, so a batch
// crosses no goroutine hand-off (a single's miss, which its handler must
// be free to abandon, runs on a runner: handOff). While every slot is held a caller waits
// behind at most queueDepth others, in arrival order, and gives up when
// its context ends; one more is refused at once — the 429 signal.
type slotPool struct {
	taskTimes
	run        chan struct{} // one token per held slot
	queueDepth int64
	waiting    atomic.Int64
	wg         sync.WaitGroup // slots held and waited for, for drain
	closed     bool           // under taskTimes.mu
	idle       chan func()    // a parked runner's inbox (handOff)
	runners    atomic.Int64
}

func newSlotPool(workers, queueDepth int) *slotPool {
	workers = max(workers, 1)
	return &slotPool{
		taskTimes:  taskTimes{workers: workers},
		run:        make(chan struct{}, workers),
		idle:       make(chan func()),
		queueDepth: int64(max(queueDepth, 0)),
	}
}

// enter takes a run slot for the caller, who must leave it. A free slot
// is taken whatever ctx says: the work checks its context itself. The
// error is errSaturated, or ctx's once it ended during the wait. A
// channel's blocked senders are served first in, first out, and a slot
// left while some wait goes to the first of them, never to a newcomer.
func (p *slotPool) enter(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errSaturated
	}
	p.wg.Add(1)
	p.mu.Unlock()
	select {
	case p.run <- struct{}{}:
		return nil
	default:
	}
	if p.waiting.Add(1) > p.queueDepth {
		p.waiting.Add(-1)
		p.wg.Done()
		return errSaturated
	}
	defer p.waiting.Add(-1)
	select {
	case p.run <- struct{}{}:
		return nil
	case <-ctx.Done():
		p.wg.Done()
		return ctx.Err()
	}
}

// leave frees the slot entered at start and times the task it ran.
func (p *slotPool) leave(start time.Time) {
	p.observe(time.Since(start))
	<-p.run
	p.wg.Done()
}

// pending reports how many callers wait for a slot — the queue-depth
// input of the adaptive Retry-After.
func (p *slotPool) pending() int { return int(p.waiting.Load()) }

// retryAfter quotes the waiters ahead of a retry.
func (p *slotPool) retryAfter(lo, hi int) string { return p.quote(p.pending(), lo, hi) }

// handOff runs fn, which holds a slot, on a runner goroutine: a parked
// one when there is one, else a new one that parks after it, up to
// workers of them; past that one of them has left its slot and is about
// to park. A runner keeps the stack its work grew, and runners exit at
// drain. In predictd a goroutine started per single miss served
// serve_cold 25–30 % fewer predictions a second than runners.
func (p *slotPool) handOff(fn func()) {
	select {
	case p.idle <- fn:
		return
	default:
	}
	if p.runners.Add(1) > int64(p.workers) {
		p.runners.Add(-1)
		p.idle <- fn
		return
	}
	go func() {
		for ok := true; ok; fn, ok = <-p.idle {
			fn()
		}
	}()
}

// drain refuses new callers, blocks until every slot held or waited for
// has been left — the graceful-shutdown path — and ends the runners.
func (p *slotPool) drain() {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	if first {
		close(p.idle)
	}
}
