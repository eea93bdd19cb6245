package queue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestRunsAllTasks(t *testing.T) {
	q := New(Config{Workers: 4})
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		err := q.Add(Task{
			ID:  fmt.Sprintf("t%d", i),
			Run: func(context.Context, int) error { count.Add(1); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	results := q.Run(context.Background())
	if count.Load() != 50 {
		t.Errorf("ran %d tasks, want 50", count.Load())
	}
	if len(results) != 50 {
		t.Errorf("results = %d", len(results))
	}
	for id, r := range results {
		if r.Err != nil {
			t.Errorf("%s failed: %v", id, r.Err)
		}
	}
}

func TestUnknownAndDuplicateTasks(t *testing.T) {
	q := New(Config{})
	if err := q.Add(Task{ID: ""}); err == nil {
		t.Error("empty ID accepted")
	}
	q.Add(Task{ID: "x", Run: func(context.Context, int) error { return nil }})
	if err := q.Add(Task{ID: "x"}); err == nil {
		t.Error("duplicate ID accepted")
	}
	q.Run(context.Background())
}

func TestCheckpointSkip(t *testing.T) {
	done := map[string]bool{"a": true, "b": true}
	q := New(Config{Workers: 2, Completed: done})
	var ran atomic.Int64
	q.Add(Task{ID: "a", Run: func(context.Context, int) error { ran.Add(1); return nil }})
	q.Add(Task{ID: "b", Run: func(context.Context, int) error { ran.Add(1); return nil }})
	q.Add(Task{ID: "c", Run: func(context.Context, int) error { ran.Add(1); return nil }})
	results := q.Run(context.Background())
	if ran.Load() != 1 {
		t.Errorf("ran %d tasks, want 1 (two skipped)", ran.Load())
	}
	if !results["a"].Skipped || !results["b"].Skipped {
		t.Error("checkpointed tasks not marked skipped")
	}
	if results["c"].Skipped || results["c"].Err != nil {
		t.Errorf("c = %+v", results["c"])
	}
}

func TestRetriesOnFailure(t *testing.T) {
	q := New(Config{Workers: 2, Retries: 3})
	var attempts atomic.Int64
	q.Add(Task{ID: "flaky", Run: func(context.Context, int) error {
		if attempts.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	}})
	results := q.Run(context.Background())
	r := results["flaky"]
	if r.Err != nil {
		t.Errorf("flaky task should eventually succeed: %v", r.Err)
	}
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", r.Attempts)
	}
}

func TestFailureInjectionRecovers(t *testing.T) {
	// with injected faults and enough retries, everything completes
	q := New(Config{
		Workers: 4, Retries: 10, Seed: 42,
		Inject: faultinject.New(42, faultinject.Rule{
			Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Rate: 0.3,
		}),
	})
	for i := 0; i < 40; i++ {
		q.Add(Task{ID: fmt.Sprintf("t%d", i), Run: func(context.Context, int) error { return nil }})
	}
	results := q.Run(context.Background())
	retried := 0
	for id, r := range results {
		if r.Err != nil {
			t.Errorf("%s failed despite retries: %v", id, r.Err)
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("failure injection never fired (suspicious at rate 0.3)")
	}
	if s := q.Stats(); s.Backoffs == 0 {
		t.Error("retries should have waited out backoff delays")
	}
}

func TestDataLocalityPreference(t *testing.T) {
	// tasks sharing a DataKey should mostly land on the same worker
	q := New(Config{Workers: 4})
	var mu sync.Mutex
	placement := map[string][]int{}
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 64; i++ {
		key := keys[i%len(keys)]
		q.Add(Task{
			ID:      fmt.Sprintf("t%d", i),
			DataKey: key,
			Run: func(_ context.Context, worker int) error {
				mu.Lock()
				placement[key] = append(placement[key], worker)
				mu.Unlock()
				return nil
			},
		})
	}
	q.Run(context.Background())
	// each key should see far fewer distinct workers than tasks
	for key, workers := range placement {
		distinct := map[int]bool{}
		for _, w := range workers {
			distinct[w] = true
		}
		if len(distinct) > 3 {
			t.Logf("key %s spread over %d workers (%v)", key, len(distinct), workers)
		}
		if len(workers) != 16 {
			t.Errorf("key %s ran %d tasks, want 16", key, len(workers))
		}
	}
}

func TestDynamicAddDuringRun(t *testing.T) {
	q := New(Config{Workers: 2})
	var ran atomic.Int64
	q.Add(Task{ID: "seed", Run: func(context.Context, int) error {
		ran.Add(1)
		// an invalidation discovered mid-run adds more work
		for i := 0; i < 5; i++ {
			if err := q.Add(Task{
				ID:  fmt.Sprintf("dynamic%d", i),
				Run: func(context.Context, int) error { ran.Add(1); return nil },
			}); err != nil {
				return err
			}
		}
		return nil
	}})
	results := q.Run(context.Background())
	if ran.Load() != 6 {
		t.Errorf("ran %d, want 6 (1 seed + 5 dynamic)", ran.Load())
	}
	if len(results) != 6 {
		t.Errorf("results = %d", len(results))
	}
}

func TestNoRetriesWhenNegative(t *testing.T) {
	q := New(Config{Workers: 1, Retries: -1})
	var attempts atomic.Int64
	q.Add(Task{ID: "once", Run: func(context.Context, int) error {
		attempts.Add(1)
		return errors.New("fail")
	}})
	results := q.Run(context.Background())
	if attempts.Load() != 1 {
		t.Errorf("attempts = %d, want 1", attempts.Load())
	}
	if results["once"].Err == nil {
		t.Error("failure not reported")
	}
}

func TestStats(t *testing.T) {
	q := New(Config{Workers: 2, Retries: 3, Completed: map[string]bool{"skip": true}})
	q.Add(Task{ID: "skip", Run: func(context.Context, int) error { return nil }})
	var tries atomic.Int64
	q.Add(Task{ID: "retry", Run: func(context.Context, int) error {
		if tries.Add(1) < 2 {
			return errors.New("transient")
		}
		return nil
	}})
	for i := 0; i < 8; i++ {
		q.Add(Task{ID: fmt.Sprintf("k%d", i), DataKey: "shared", Run: func(context.Context, int) error { return nil }})
	}
	q.Run(context.Background())
	s := q.Stats()
	if s.Tasks != 10 {
		t.Errorf("Tasks = %d, want 10", s.Tasks)
	}
	if s.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1", s.Skipped)
	}
	if s.Retried != 1 || s.Failed != 0 {
		t.Errorf("Retried/Failed = %d/%d, want 1/0", s.Retried, s.Failed)
	}
	if s.LocalityHits == 0 {
		t.Error("8 tasks sharing a DataKey should produce locality hits")
	}
	if s.TotalAttempts < s.Tasks-s.Skipped {
		t.Errorf("TotalAttempts = %d inconsistent", s.TotalAttempts)
	}
}

func TestTaskTimeoutKillsHungTask(t *testing.T) {
	q := New(Config{Workers: 2, Retries: 1, TaskTimeout: 20 * time.Millisecond})
	var hungAttempts atomic.Int64
	q.Add(Task{ID: "hung", Run: func(ctx context.Context, _ int) error {
		hungAttempts.Add(1)
		<-ctx.Done() // a well-behaved hang: blocks until the deadline kills it
		return ctx.Err()
	}})
	q.Add(Task{ID: "ok", Run: func(context.Context, int) error { return nil }})
	done := make(chan map[string]*Result, 1)
	go func() { done <- q.Run(context.Background()) }()
	select {
	case results := <-done:
		r := results["hung"]
		if r.Err == nil || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("hung err = %v, want deadline exceeded", r.Err)
		}
		if !r.TimedOut {
			t.Error("result not marked TimedOut")
		}
		if r.Attempts != 2 {
			t.Errorf("attempts = %d, want 2 (initial + 1 retry)", r.Attempts)
		}
		if results["ok"].Err != nil {
			t.Errorf("ok task failed: %v", results["ok"].Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queue wedged on a hung task")
	}
	if s := q.Stats(); s.TimedOut != 2 {
		t.Errorf("Stats.TimedOut = %d, want 2", s.TimedOut)
	}
}

func TestTimeoutAbandonsNonCooperativeTask(t *testing.T) {
	// a task that ignores ctx entirely must not wedge its worker slot
	q := New(Config{Workers: 1, Retries: -1, TaskTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	q.Add(Task{ID: "stubborn", Run: func(context.Context, int) error {
		<-release // ignores ctx
		return nil
	}})
	q.Add(Task{ID: "next", Run: func(context.Context, int) error { return nil }})
	done := make(chan map[string]*Result, 1)
	go func() { done <- q.Run(context.Background()) }()
	select {
	case results := <-done:
		if !errors.Is(results["stubborn"].Err, context.DeadlineExceeded) {
			t.Errorf("stubborn err = %v", results["stubborn"].Err)
		}
		if results["next"].Err != nil {
			t.Error("worker slot never freed for the next task")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker wedged by a ctx-ignoring task")
	}
	close(release) // let the leaked goroutine finish
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// one worker holds the blocker, so the 20 tasks queued behind it
	// never start
	q := New(Config{Workers: 1, Retries: 0})
	started := make(chan struct{})
	var once sync.Once
	q.Add(Task{ID: "blocker", Run: func(ctx context.Context, _ int) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	}})
	for i := 0; i < 20; i++ {
		q.Add(Task{ID: fmt.Sprintf("later%d", i), Run: func(context.Context, int) error { return nil }})
	}
	go func() {
		<-started
		cancel()
	}()
	results := q.Run(ctx)
	if len(results) != 21 {
		t.Fatalf("results = %d, want 21 (every task gets a terminal record)", len(results))
	}
	if results["blocker"].Err == nil {
		t.Error("blocker should fail with the cancellation error")
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, ErrCancelled) {
			cancelled++
		}
	}
	// 20 never-started tasks + the blocker itself, whose in-flight
	// attempt died of the cancellation
	if cancelled != 21 {
		t.Errorf("cancelled = %d, want 21", cancelled)
	}
	if !errors.Is(results["blocker"].Err, ErrCancelled) {
		t.Errorf("blocker err = %v, want ErrCancelled wrap", results["blocker"].Err)
	}
	if s := q.Stats(); s.Cancelled == 0 {
		t.Error("Stats.Cancelled not counted")
	}
}

func TestBackoffDelaysRetries(t *testing.T) {
	q := New(Config{
		Workers: 1, Retries: 3, Seed: 5,
		BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond,
	})
	var times []time.Time
	q.Add(Task{ID: "flaky", Run: func(context.Context, int) error {
		times = append(times, time.Now())
		if len(times) < 4 {
			return errors.New("transient")
		}
		return nil
	}})
	if r := q.Run(context.Background())["flaky"]; r.Err != nil {
		t.Fatalf("flaky: %v", r.Err)
	}
	if len(times) != 4 {
		t.Fatalf("attempts = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		// jittered backoff is at least base/2 (first retry) and grows
		if gap < 5*time.Millisecond {
			t.Errorf("retry %d came after %v, want ≥ 5ms of backoff", i, gap)
		}
	}
	if s := q.Stats(); s.Backoffs != 3 {
		t.Errorf("Backoffs = %d, want 3", s.Backoffs)
	}
}

func TestDeterministicInjectionSequence(t *testing.T) {
	// the same plan + seed over the same schedule yields the same
	// failure sequence (single worker makes the schedule deterministic)
	run := func() []string {
		plan := faultinject.New(11, faultinject.Rule{
			Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Rate: 0.4,
		})
		q := New(Config{Workers: 1, Retries: 5, Seed: 11, BackoffBase: -1, Inject: plan})
		for i := 0; i < 20; i++ {
			q.Add(Task{ID: fmt.Sprintf("t%02d", i), Run: func(context.Context, int) error { return nil }})
		}
		q.Run(context.Background())
		var seq []string
		for _, e := range plan.Log() {
			seq = append(seq, e.Kind+":"+e.Key)
		}
		return seq
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no injections fired")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("injection sequence diverged:\n%v\n%v", a, b)
	}
}

// TestStressWithFaults is the lost-wakeup regression test: many workers
// contending over injected faults, real backoff windows, timeouts, and
// dynamic adds from running tasks. Workers park on the sync.Cond while
// retries wait out their backoff timers, so a worker that parked after a
// nil pick while a timer or an Add was between readying a task and
// signalling would miss the wakeup; under load that wedged the queue. Run
// it under -race (`make stress`).
func TestStressWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const (
		keys  = 24
		tasks = 12 // per key
		fan   = 3  // tasks each adder adds while it runs
	)
	plan := faultinject.New(3, faultinject.Rule{
		Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Rate: 0.15,
	})
	q := New(Config{
		Workers: 16, Retries: 30, Seed: 3,
		BackoffBase: 100 * time.Microsecond, BackoffMax: time.Millisecond,
		TaskTimeout: time.Second,
		Inject:      plan,
	})
	var ran atomic.Int64
	leaf := func(context.Context, int) error { ran.Add(1); return nil }
	for k := 0; k < keys; k++ {
		for i := 0; i < tasks; i++ {
			id := fmt.Sprintf("k%02d/t%02d", k, i)
			task := Task{ID: id, DataKey: fmt.Sprintf("key%d", k), Run: leaf}
			if i == tasks/2 {
				// dynamic fan-out: a running task adds more work
				task.Run = func(context.Context, int) error {
					ran.Add(1)
					for j := 0; j < fan; j++ {
						if err := q.Add(Task{ID: fmt.Sprintf("%s/fan%d", id, j), Run: leaf}); err != nil {
							return err
						}
					}
					return nil
				}
			}
			if err := q.Add(task); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan map[string]*Result, 1)
	go func() { done <- q.Run(context.Background()) }()
	var results map[string]*Result
	select {
	case results = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("queue wedged (lost wakeup?)")
	}
	want := keys*tasks + keys*fan
	if len(results) != want {
		t.Fatalf("results = %d, want %d", len(results), want)
	}
	for id, r := range results {
		if r.Err != nil {
			t.Errorf("%s failed: %v", id, r.Err)
		}
	}
	if n := ran.Load(); n != int64(want) {
		t.Errorf("ran %d, want %d", n, want)
	}
	if s := q.Stats(); s.Backoffs == 0 {
		t.Error("no retry waited out a backoff window (injection at 0.15 should force some)")
	}
}
