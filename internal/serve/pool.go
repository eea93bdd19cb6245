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

// errSaturated is admit's refusal: every run slot is held and the
// queue of waiters is full, or the pool is draining.
var errSaturated = errors.New("saturated")

// slotPool bounds the work that runs at once: a caller takes one of
// workers run slots and computes on its own goroutine (a single's miss,
// which its handler must be free to abandon, on a runner: handOff; a
// fit, which outlives its request, on a goroutine of its own: submit).
// While every slot is held a caller waits behind at most queueDepth
// others; one more is refused at once — the 429 signal.
type slotPool struct {
	mu         sync.Mutex
	took       ring // recent task durations (ms), for retryAfter
	closed     bool
	workers    int
	run        chan struct{} // one token per held slot
	queueDepth int64
	waiting    atomic.Int64
	wg         sync.WaitGroup // slots held and waited for, for drain
	idle       chan func()    // a parked runner's inbox (handOff)
	runners    atomic.Int64
}

func newSlotPool(workers, queueDepth int) *slotPool {
	workers = max(workers, 1)
	return &slotPool{
		workers:    workers,
		run:        make(chan struct{}, workers),
		idle:       make(chan func()),
		queueDepth: int64(max(queueDepth, 0)),
	}
}

// admit takes a free run slot for the caller, or a place among the
// waiters, without blocking: held says which. A holder must leave its
// slot and a waiter await it; the error is errSaturated.
func (p *slotPool) admit() (held bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false, errSaturated
	}
	p.wg.Add(1)
	p.mu.Unlock()
	select {
	case p.run <- struct{}{}:
		return true, nil
	default:
	}
	if p.waiting.Add(1) > p.queueDepth {
		p.waiting.Add(-1)
		p.wg.Done()
		return false, errSaturated
	}
	return false, nil
}

// await blocks a caller admitted among the waiters until it holds a run
// slot, or returns ctx's error once ctx ends first. A channel's blocked
// senders are served first in, first out, and a slot left while some
// wait goes to the first of them, never to a newcomer.
func (p *slotPool) await(ctx context.Context) error {
	defer p.waiting.Add(-1)
	select {
	case p.run <- struct{}{}:
		return nil
	case <-ctx.Done():
		p.wg.Done()
		return ctx.Err()
	}
}

// enter takes a run slot for the caller, who must leave it. A free slot
// is taken whatever ctx says: the work checks its context itself. The
// error is errSaturated, or ctx's once it ended during the wait.
func (p *slotPool) enter(ctx context.Context) error {
	held, err := p.admit()
	if held || err != nil {
		return err
	}
	return p.await(ctx)
}

// submit admits fn and, once it holds a slot, runs it on a goroutine of
// its own; false means the pool refused it. fn waits for its slot with
// no deadline, and fns admitted back to back may start in either order.
func (p *slotPool) submit(fn func()) bool {
	held, err := p.admit()
	if err != nil {
		return false
	}
	go func() {
		if !held {
			//lint:ignore pressiovet/ctxflow an admitted fit outlives the submitting request by design; drain waits for it
			p.await(context.Background())
		}
		defer p.leave(time.Now())
		fn()
	}()
	return true
}

// leave frees the slot entered at start and times the task it ran.
func (p *slotPool) leave(start time.Time) {
	p.observe(time.Since(start))
	<-p.run
	p.wg.Done()
}

// observe records one task's duration.
func (p *slotPool) observe(d time.Duration) {
	p.mu.Lock()
	p.took.add(d.Seconds() * 1e3)
	p.mu.Unlock()
}

// pending reports how many callers wait for a slot — the queue-depth
// input of the adaptive Retry-After.
func (p *slotPool) pending() int { return int(p.waiting.Load()) }

// retryAfter derives a Retry-After, in seconds, from the pool's live
// backpressure: the waiters ahead of a retry times the median recent
// task duration, spread over the slots, clamped to [lo, hi] — lo until
// a task has been timed.
func (p *slotPool) retryAfter(lo, hi int) string {
	p.mu.Lock()
	p50 := stats.Quantile(p.took.samples, 0.50)
	p.mu.Unlock()
	secs := int(math.Ceil(float64(p.pending()+1) * p50 / 1e3 / float64(p.workers)))
	return strconv.Itoa(min(max(secs, lo), hi))
}

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
