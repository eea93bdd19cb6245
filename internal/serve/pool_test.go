package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSlotPoolSubmitBackpressureAndDrain(t *testing.T) {
	p := newSlotPool(1, 1)
	block := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	if !p.submit(func() { close(started); <-block; ran.Add(1) }) {
		t.Fatal("first submit should fit")
	}
	<-started
	if !p.submit(func() { ran.Add(1) }) {
		t.Fatal("second submit should queue")
	}
	if p.submit(func() {}) {
		t.Error("third submit should be refused: worker busy, queue full")
	}
	close(block)
	p.drain()
	if ran.Load() != 2 {
		t.Errorf("ran %d tasks, want 2", ran.Load())
	}
	if p.submit(func() {}) {
		t.Error("a drained pool must refuse work")
	}
}

// TestSlotPoolRunnersDrain: singles handed off from many goroutines at
// once all run, on at most Workers runner goroutines, and drain ends
// the runners (the package's goroutine-leak guard checks that).
func TestSlotPoolRunnersDrain(t *testing.T) {
	const workers, singles = 2, 200
	p := newSlotPool(workers, singles)
	var wg sync.WaitGroup
	var ran atomic.Int64
	for i := 0; i < singles; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.enter(context.Background()); err != nil {
				t.Error(err)
				return
			}
			done := make(chan struct{})
			p.handOff(func() {
				defer close(done)
				defer p.leave(time.Now())
				ran.Add(1)
			})
			<-done
		}()
	}
	wg.Wait()
	p.drain()
	if ran.Load() != singles || p.runners.Load() > workers {
		t.Errorf("%d of %d singles ran on %d runners, want all on at most %d", ran.Load(), singles, p.runners.Load(), workers)
	}
	if err := p.enter(context.Background()); err != errSaturated {
		t.Errorf("a drained pool's enter = %v, want errSaturated", err)
	}
}

// distinctFit is tinyFit at its own first bound: a job of its own, not
// an idempotent resubmit of another.
func distinctFit(i int) FitRequest {
	req := tinyFit()
	req.Training.Bounds = []float64{1e-4 * float64(i+1), 1e-2}
	return req
}

// postFit submits a fit that must be accepted and returns its job ID.
func postFit(t *testing.T, base string, req FitRequest) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/fit", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	return fr.JobID
}

// TestFitSaturationReturns429 fills the one fit slot and the one-deep
// fit queue: the third distinct fit is shed with 429 + Retry-After, its
// journal record withdrawn, and /statz counts the rejection.
func TestFitSaturationReturns429(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		Deadline:      time.Minute,
		FitWorkers:    1,
		FitQueueDepth: 1,
		testHookFit:   func() { entered <- struct{}{}; <-gate },
	})
	base := ts.URL

	running := postFit(t, base, distinctFit(0))
	<-entered // the first fit holds the slot
	queued := postFit(t, base, distinctFit(1))
	before := statz(t, base).Rejected

	shed := distinctFit(2)
	resp, body := postJSON(t, base+"/v1/fit", shed)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third fit = %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("fit 429 without Retry-After")
	}
	key := JobKey(shed.Scheme, shed.Compressor, nil, shed.Training)
	if _, ok, err := s.journal.st.Get(key); err != nil || ok {
		t.Errorf("shed fit's journal record: present=%v err=%v, want withdrawn", ok, err)
	}
	if after := statz(t, base).Rejected; after != before+1 {
		t.Errorf("/statz rejected %d → %d, want +1", before, after)
	}

	close(gate)
	for _, id := range []string{running, queued} {
		if job := waitJob(t, base, id); job.Status != "done" {
			t.Errorf("job %s: %s %s", id, job.Status, job.Error)
		}
	}
}

// TestDrainRunsQueuedFits: a fit still queued when Drain begins runs to
// done before Drain returns, and the journal says so.
func TestDrainRunsQueuedFits(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		Deadline:      time.Minute,
		FitWorkers:    1,
		FitQueueDepth: 1,
		testHookFit:   func() { entered <- struct{}{}; <-gate },
	})
	base := ts.URL

	postFit(t, base, distinctFit(0))
	<-entered
	req := distinctFit(1)
	postFit(t, base, req)

	drained := make(chan struct{})
	go func() { defer close(drained); s.Drain() }()
	for deadline := time.Now().Add(10 * time.Second); !s.draining.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Drain never began")
		}
	}
	close(gate)
	select {
	case <-drained:
	case <-time.After(time.Minute):
		t.Fatal("Drain wedged with a queued fit")
	}
	raw, ok, err := s.journal.st.Get(JobKey(req.Scheme, req.Compressor, nil, req.Training))
	var rec jobRecord
	if ok {
		err = json.Unmarshal(raw, &rec)
	}
	if !ok || err != nil || rec.Status != "done" {
		t.Errorf("queued fit's journal record after Drain: present=%v err=%v status %q, want done", ok, err, rec.Status)
	}
}
