// Package queue is the distributed task queue of predict-bench — the
// substitution for the MPI-based LibDistributed queue the paper builds on
// (§4.3). Workers are goroutines standing in for ranks; the scheduler
// keeps the semantics the paper needs and most workflow systems lack:
//
//   - data-locality-aware placement: tasks tagged with a DataKey prefer a
//     worker that recently held that data, because data loading dominates
//     task runtime for most compressors;
//   - dynamic addition: invalidations create new work while the queue is
//     running, so Add is legal at any time;
//   - fault tolerance: worker failures (scriptable through a faultinject
//     plan) requeue the task on a different worker after a capped
//     exponential backoff with deterministic jitter, up to a retry
//     budget; a per-task deadline kills hung attempts so one wedged task
//     cannot hold a worker slot forever; cancelling the run context
//     drains the queue, recording unstarted tasks as cancelled;
//   - checkpoint skip: tasks whose IDs the caller already has results for
//     complete instantly, which is how a restarted bench run resumes.
package queue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Task is one schedulable unit.
type Task struct {
	// ID uniquely identifies the task (e.g. an opthash key).
	ID string
	// DataKey names the data the task reads; tasks sharing a DataKey
	// are preferentially placed on the same worker.
	DataKey string
	// Run executes the task. ctx carries the per-attempt deadline and
	// whole-run cancellation; long tasks should honor it. The worker
	// index lets tests observe placement.
	Run func(ctx context.Context, worker int) error
}

// Result records one task's outcome.
type Result struct {
	ID       string
	Worker   int // final worker
	Attempts int
	Err      error
	Skipped  bool // completed from checkpoint, never ran
	TimedOut bool // at least one attempt hit the per-task deadline
}

// Config tunes a Queue.
type Config struct {
	// Workers is the worker-goroutine count (default 4).
	Workers int
	// Retries is how many times a failed task is retried (default 2;
	// pass a negative value for no retries).
	Retries int
	// Completed holds task IDs already checkpointed; they are skipped.
	Completed map[string]bool
	// TaskTimeout bounds each attempt; an attempt that exceeds it is
	// abandoned, counted as a failure, and retried elsewhere (0 = none).
	TaskTimeout time.Duration
	// BackoffBase is the delay before the first retry; attempt n waits
	// min(BackoffBase·2^(n-1), BackoffMax) with deterministic jitter in
	// [delay/2, delay). Default 2ms; negative disables backoff.
	BackoffBase time.Duration
	// BackoffMax caps the backoff (default 250ms).
	BackoffMax time.Duration
	// Inject scripts failures deterministically (tests only); fired as
	// faultinject.OpTask before every attempt.
	Inject *faultinject.Plan
	// Seed drives the backoff jitter deterministically.
	Seed uint64
}

// ErrCancelled marks tasks abandoned because the run context was
// cancelled before they could run (wraps context.Canceled via %w at the
// recording site, so errors.Is works for either).
var ErrCancelled = errors.New("queue: run cancelled")

// Queue schedules tasks over workers. Create with New, add tasks with
// Add (before or during Run), and call Run to drain.
type Queue struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond // guarded by mu; signals ready/pending changes
	tasks     map[string]*taskState
	ready     []*taskState
	pending   int // tasks not yet in a terminal state
	running   bool
	cancelled bool

	results map[string]*Result

	// locality: worker → set of recent data keys
	workerData   []map[string]bool
	localityHits int

	timedOut int
	backoffs int

	rngState uint64
}

type taskState struct {
	task       Task
	attempts   int
	lastWorker int
	timedOut   bool
	done       bool
	failed     bool
}

// New builds a queue.
func New(cfg Config) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	} else if cfg.BackoffBase < 0 {
		cfg.BackoffBase = 0
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	q := &Queue{
		cfg:        cfg,
		tasks:      make(map[string]*taskState),
		results:    make(map[string]*Result),
		workerData: make([]map[string]bool, cfg.Workers),
		rngState:   cfg.Seed | 1,
	}
	q.cond = sync.NewCond(&q.mu)
	for i := range q.workerData {
		q.workerData[i] = make(map[string]bool)
	}
	return q
}

// Add enqueues a task; legal before and during Run. A duplicate ID is an
// error.
func (q *Queue) Add(t Task) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.ID == "" {
		return errors.New("queue: task needs an ID")
	}
	if _, dup := q.tasks[t.ID]; dup {
		return fmt.Errorf("queue: duplicate task %q", t.ID)
	}
	st := &taskState{task: t}
	q.tasks[t.ID] = st
	if q.cfg.Completed[t.ID] {
		// checkpointed: complete instantly
		st.done = true
		q.results[t.ID] = &Result{ID: t.ID, Skipped: true, Worker: -1}
		return nil
	}
	q.pending++
	q.ready = append(q.ready, st)
	q.cond.Broadcast()
	return nil
}

// pickLocked chooses a ready task for the given worker: the first whose
// DataKey it already holds (it completed a task with that key), else
// FIFO, whoever holds the front task's key. A retry avoids its previous
// worker when another task is ready. bench's cell cache budget leans on
// this: a worker drains the cells of a buffer it holds before any other.
func (q *Queue) pickLocked(worker int) *taskState {
	if len(q.ready) == 0 {
		return nil
	}
	bestIdx := -1
	for i, st := range q.ready {
		if st.attempts > 0 && st.lastWorker == worker && len(q.ready) > 1 && q.cfg.Workers > 1 {
			continue // prefer a different worker for retries
		}
		if st.task.DataKey != "" && q.workerData[worker][st.task.DataKey] {
			bestIdx = i
			q.localityHits++
			break // perfect locality
		}
		if bestIdx < 0 {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		bestIdx = 0
	}
	st := q.ready[bestIdx]
	q.ready = append(q.ready[:bestIdx], q.ready[bestIdx+1:]...)
	return st
}

// backoffLocked computes the capped exponential retry delay for the
// given attempt count, with deterministic jitter drawn from the seeded
// xorshift state: delay ∈ [base·2^(n-1)/2, base·2^(n-1)), capped.
func (q *Queue) backoffLocked(attempts int) time.Duration {
	if q.cfg.BackoffBase <= 0 {
		return 0
	}
	d := q.cfg.BackoffBase
	for i := 1; i < attempts && d < q.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > q.cfg.BackoffMax {
		d = q.cfg.BackoffMax
	}
	q.rngState ^= q.rngState << 13
	q.rngState ^= q.rngState >> 7
	q.rngState ^= q.rngState << 17
	half := d / 2
	if half > 0 {
		d = half + time.Duration(q.rngState%uint64(half))
	}
	return d
}

// requeueLocked schedules st for retry after backoff. The task stays
// pending (so the queue does not drain), becoming ready when the timer
// fires.
func (q *Queue) requeueLocked(st *taskState) {
	delay := q.backoffLocked(st.attempts)
	if delay <= 0 {
		q.ready = append(q.ready, st)
		return
	}
	q.backoffs++
	time.AfterFunc(delay, func() {
		q.mu.Lock()
		if !st.done && !st.failed && !q.cancelled {
			q.ready = append(q.ready, st)
		}
		q.mu.Unlock()
		q.cond.Broadcast()
	})
}

// cancelPendingLocked records every non-terminal task as cancelled. Tasks
// with an attempt in flight are finalized by their worker instead.
func (q *Queue) cancelPendingLocked(ctx context.Context, inFlight map[*taskState]bool) {
	for _, st := range q.tasks {
		if st.done || st.failed || inFlight[st] {
			continue
		}
		st.failed = true
		q.pending--
		q.results[st.task.ID] = &Result{
			ID: st.task.ID, Worker: -1, Attempts: st.attempts,
			Err: fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx)),
		}
	}
}

// Run drains the queue under ctx and returns all results keyed by task
// ID. Cancelling ctx stops scheduling: running attempts get their
// context cancelled and are recorded as cancelled (ErrCancelled, like
// unstarted tasks) unless they fail with an unrelated error of their
// own. Run may be called once.
func (q *Queue) Run(ctx context.Context) map[string]*Result {
	if ctx == nil {
		//lint:ignore pressiovet/ctxflow nil-ctx compatibility guard, not a detachment: callers that pass a ctx keep full cancellation flow
		ctx = context.Background()
	}
	q.mu.Lock()
	if q.running {
		q.mu.Unlock()
		panic("queue: Run called twice")
	}
	q.running = true
	q.mu.Unlock()

	// in-flight tracking lets cancellation distinguish tasks a worker
	// will finalize from tasks nobody owns
	inFlight := make(map[*taskState]bool)

	// wake sleeping workers when the run context dies
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			q.mu.Lock()
			q.cancelled = true
			q.cancelPendingLocked(ctx, inFlight)
			q.mu.Unlock()
			q.cond.Broadcast()
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < q.cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			q.mu.Lock()
			for {
				if q.cancelled || q.pending == 0 {
					q.mu.Unlock()
					q.cond.Broadcast()
					return
				}
				st := q.pickLocked(worker)
				if st == nil {
					// Wait re-checks under the same lock, so a wakeup
					// between pick and park cannot be lost.
					q.cond.Wait()
					continue
				}
				st.attempts++
				st.lastWorker = worker
				inFlight[st] = true
				decision := q.cfg.Inject.Fire(faultinject.OpTask, worker, st.task.ID)
				q.mu.Unlock()

				err := q.attempt(ctx, st, worker, decision)

				q.mu.Lock()
				delete(inFlight, st)
				if st.failed {
					// cancelled and finalized elsewhere; drop the result
					continue
				}
				if err == nil {
					st.done = true
					q.pending--
					if st.task.DataKey != "" {
						q.workerData[worker][st.task.DataKey] = true
					}
					q.results[st.task.ID] = &Result{
						ID: st.task.ID, Worker: worker, Attempts: st.attempts,
						TimedOut: st.timedOut,
					}
				} else if st.attempts <= q.cfg.Retries && !q.cancelled && ctx.Err() == nil {
					q.requeueLocked(st)
				} else {
					if ctx.Err() != nil && errors.Is(err, context.Cause(ctx)) {
						// the attempt died of run cancellation, not its own
						// fault; record it like every other cancelled task
						err = fmt.Errorf("%w: %w", ErrCancelled, err)
					}
					st.failed = true
					q.pending--
					q.results[st.task.ID] = &Result{
						ID: st.task.ID, Worker: worker, Attempts: st.attempts, Err: err,
						TimedOut: st.timedOut,
					}
				}
				q.cond.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	close(stopWatch)

	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]*Result, len(q.results))
	for k, v := range q.results {
		out[k] = v
	}
	return out
}

// attempt runs one try of st on worker, honoring the injected decision
// and the per-task deadline. A timed-out attempt is abandoned: its
// goroutine keeps running until the task function notices ctx, but the
// worker slot moves on immediately.
func (q *Queue) attempt(ctx context.Context, st *taskState, worker int, decision faultinject.Decision) error {
	if decision.Delay > 0 {
		select {
		case <-time.After(decision.Delay):
		case <-ctx.Done():
		}
	}
	if decision.Err != nil {
		return decision.Err
	}
	// don't start new work after cancellation, even if the watcher has
	// not marked the queue cancelled yet
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("queue: task %q: %w", st.task.ID, err)
	}
	if st.task.Run == nil {
		return nil
	}
	attemptCtx := ctx
	var cancel context.CancelFunc
	if q.cfg.TaskTimeout > 0 {
		attemptCtx, cancel = context.WithTimeout(ctx, q.cfg.TaskTimeout)
		defer cancel()
	}
	done := make(chan error, 1)
	go func() { done <- st.task.Run(attemptCtx, worker) }()
	select {
	case err := <-done:
		return err
	case <-attemptCtx.Done():
		err := attemptCtx.Err()
		if errors.Is(err, context.DeadlineExceeded) {
			q.mu.Lock()
			st.timedOut = true
			q.timedOut++
			q.mu.Unlock()
			return fmt.Errorf("queue: task %q attempt %d on worker %d: %w",
				st.task.ID, st.attempts, worker, err)
		}
		return fmt.Errorf("queue: task %q: %w", st.task.ID, err)
	}
}

// Stats summarizes a finished run for observability: how often the
// locality scheduler placed a task on a worker already holding its data,
// and how much retrying the fault tolerance absorbed.
type Stats struct {
	Tasks         int
	Skipped       int // checkpoint hits
	Failed        int
	Cancelled     int // abandoned by run-context cancellation
	Retried       int // tasks needing more than one attempt
	TimedOut      int // attempts killed by the per-task deadline
	Backoffs      int // retries that waited out a backoff delay
	LocalityHits  int // placements onto a worker already holding the DataKey
	TotalAttempts int
}

// Stats reports run statistics; call after Run returns.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	var s Stats
	for _, r := range q.results {
		s.Tasks++
		s.TotalAttempts += r.Attempts
		if r.Skipped {
			s.Skipped++
			continue
		}
		if r.Err != nil {
			s.Failed++
			if errors.Is(r.Err, ErrCancelled) {
				s.Cancelled++
			}
		}
		if r.Attempts > 1 {
			s.Retried++
		}
	}
	s.TimedOut = q.timedOut
	s.Backoffs = q.backoffs
	s.LocalityHits = q.localityHits
	return s
}
