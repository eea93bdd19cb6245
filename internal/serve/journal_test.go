package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// tinyFit is the cheapest real training request that still fits: 1 field
// × 2 steps × 2 bounds on an 8³ grid (4 samples for 3 features).
func tinyFit() FitRequest {
	return FitRequest{
		Scheme:     "krasowska2021",
		Compressor: "sz3",
		Training: TrainingSpec{
			Fields: []string{"P"},
			Steps:  2,
			Dims:   []int{8, 8, 8},
			Bounds: []float64{1e-4, 1e-2},
		},
	}
}

// waitJob polls a job until it reaches a terminal status.
func waitJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		var job JobView
		resp := getJSON(t, base+"/v1/jobs/"+id, &job)
		if resp.StatusCode == http.StatusOK && (job.Status == "done" || job.Status == "failed") {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck (last status %q)", id, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFitIdempotentResubmit sends the same opthash three times across the
// job's lifecycle: while running and after done, the resubmit returns the
// existing job instead of fitting again.
func TestFitIdempotentResubmit(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{
		Deadline:    time.Minute,
		testHookFit: func() { entered <- struct{}{}; <-gate },
	})
	defer s.Drain()
	base := ts.URL

	resp, body := postJSON(t, base+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var first FitResponse
	json.Unmarshal(body, &first)
	<-entered // the job is running, pinned on the gate

	resp, body = postJSON(t, base+"/v1/fit", tinyFit())
	var dup FitResponse
	json.Unmarshal(body, &dup)
	if resp.StatusCode != http.StatusAccepted || !dup.Existing || dup.JobID != first.JobID {
		t.Fatalf("resubmit while running = %d %+v, want existing %s", resp.StatusCode, dup, first.JobID)
	}

	close(gate)
	if job := waitJob(t, base, first.JobID); job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}
	resp, body = postJSON(t, base+"/v1/fit", tinyFit())
	json.Unmarshal(body, &dup)
	if !dup.Existing || dup.JobID != first.JobID {
		t.Errorf("resubmit after done = %s existing=%v, want existing %s", dup.JobID, dup.Existing, first.JobID)
	}

	// a different training set is a different opthash → a new job
	other := tinyFit()
	other.Training.Bounds = []float64{1e-3, 1e-1}
	resp, body = postJSON(t, base+"/v1/fit", other)
	var fresh FitResponse
	json.Unmarshal(body, &fresh)
	if fresh.Existing || fresh.JobID == first.JobID {
		t.Errorf("distinct request got %+v, want a fresh job", fresh)
	}
	waitJob(t, base, fresh.JobID)
}

// TestJournalReplayReEnqueuesInterruptedJob simulates a crash mid-fit:
// the journal holds a running job; a fresh server over the same store
// must re-enqueue it, run it to done, and publish the model.
func TestJournalReplayReEnqueuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// hand-journal a job caught running at the crash
	req := tinyFit()
	key := JobKey(req.Scheme, req.Compressor, nil, req.Training)
	rec := jobRecord{
		ID: "job-7", Key: key, Scheme: req.Scheme, Compressor: req.Compressor,
		Status: "running", Request: req,
	}
	raw, _ := json.Marshal(rec)
	if err := st.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	s, err := New(st, Config{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// not ready until replay completes
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz before replay = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/fit", tinyFit()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fit before replay = %d, want 503", resp.StatusCode)
	}

	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { s.Drain(); st.Close() }()
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after replay = %d, want 200", resp.StatusCode)
	}

	job := waitJob(t, ts.URL, "job-7")
	if job.Status != "done" || job.Model == "" {
		t.Fatalf("replayed job = %+v, want done with a model", job)
	}
	if job.Samples != 4 {
		t.Errorf("replayed job trained on %d samples, want 4", job.Samples)
	}

	// the ID sequence resumes above the journaled job
	resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{
		Scheme: "krasowska2021", Compressor: "sz3",
		Training: TrainingSpec{Fields: []string{"CLOUD"}, Steps: 2, Dims: []int{8, 8, 8}, Bounds: []float64{1e-4, 1e-2}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit after replay: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	if fr.JobID != "job-8" {
		t.Errorf("post-replay job ID = %s, want job-8 (sequence resumed)", fr.JobID)
	}
	waitJob(t, ts.URL, fr.JobID)
}

// TestReplayAdoptsPublishedModel covers the crash window between model
// publish and the done-status journal write: the replayed job must adopt
// the already-published model, not train and publish a second one.
func TestReplayAdoptsPublishedModel(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// run a fit to completion to get a published model
	s1, err := New(st, Config{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := postJSON(t, ts1.URL+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	done := waitJob(t, ts1.URL, fr.JobID)
	ts1.Close()
	s1.Drain()
	modelRaw, ok, err := st.Get(done.Model)
	if err != nil || !ok {
		t.Fatalf("published model unreadable: %v", err)
	}

	// rewind the journal to "running", as if the crash hit before the
	// done record landed
	req := tinyFit()
	key := done.Key
	rec := jobRecord{
		ID: fr.JobID, Key: key, Scheme: req.Scheme, Compressor: req.Compressor,
		Status: "running", Request: req,
	}
	raw, _ := json.Marshal(rec)
	if err := st.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	s2, err := New(st, Config{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() { s2.Drain(); st.Close() }()

	job := waitJob(t, ts2.URL, fr.JobID)
	if job.Status != "done" || job.Model != done.Model {
		t.Fatalf("replayed job = %+v, want done with model %s", job, done.Model)
	}
	after, ok, err := st.Get(done.Model)
	if err != nil || !ok {
		t.Fatalf("model gone after replay: %v", err)
	}
	if string(after) != string(modelRaw) {
		t.Error("replay re-published the model with different content — adoption failed")
	}
	if n := s2.Registry().Len(); n != 1 {
		t.Errorf("registry has %d models, want 1", n)
	}
}

// TestJobEvictionTTLAndCap drives the retained-job bound both ways: the
// cap evicts oldest-first under load, the TTL clears the rest once the
// clock moves, and /statz accounts for every eviction.
func TestJobEvictionTTLAndCap(t *testing.T) {
	// the server reads the clock from its fit workers and handlers while
	// the test advances it: an atomic offset, not a shared time.Time
	var elapsed atomic.Int64
	s, ts := newTestServer(t, Config{
		Deadline:  time.Minute,
		JobTTL:    time.Hour,
		JobRetain: 2,
		testClock: func() time.Time { return time.Unix(1700000000, 0).Add(time.Duration(elapsed.Load())) },
	})
	defer s.Drain()
	base := ts.URL

	// three distinct finished jobs against a 2-job cap
	ids := make([]string, 3)
	for i := range ids {
		req := tinyFit()
		req.Training.Steps = i + 1 // distinct opthash per job
		resp, body := postJSON(t, base+"/v1/fit", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fit %d: %d %s", i, resp.StatusCode, body)
		}
		var fr FitResponse
		json.Unmarshal(body, &fr)
		ids[i] = fr.JobID
		job := waitJob(t, base, fr.JobID)
		if job.Status != "done" {
			t.Fatalf("fit %d failed: %s", i, job.Error)
		}
		elapsed.Add(int64(time.Minute)) // deterministic eviction order
	}

	st := statz(t, base)
	if st.JobsRetained != 2 || st.JobsEvicted != 1 {
		t.Errorf("after cap: retained=%d evicted=%d, want 2/1", st.JobsRetained, st.JobsEvicted)
	}
	if resp := getJSON(t, base+"/v1/jobs/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job should be evicted, got %d", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/v1/jobs/"+ids[2], nil); resp.StatusCode != http.StatusOK {
		t.Errorf("newest job should be retained, got %d", resp.StatusCode)
	}

	// TTL expiry clears the rest
	elapsed.Add(int64(2 * time.Hour))
	st = statz(t, base)
	if st.JobsRetained != 0 || st.JobsEvicted != 3 {
		t.Errorf("after TTL: retained=%d evicted=%d, want 0/3", st.JobsRetained, st.JobsEvicted)
	}

	// evicted journal records are gone from the store too: a restart
	// replays nothing
	s2, err := New(s.journal.st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2.jobMu.Lock()
	n := len(s2.jobs)
	s2.jobMu.Unlock()
	if n != 0 {
		t.Errorf("evicted jobs left %d journal records behind", n)
	}
	s2.Drain()
}

// TestFitJournalErrorRefusesAck closes the store under the server: a fit
// that cannot be journaled must not be acknowledged.
func TestFitJournalErrorRefusesAck(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st.Close() // the "disk" dies
	resp, body := postJSON(t, ts.URL+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("fit with dead journal = %d %s, want 500", resp.StatusCode, body)
	}
	if st := statz(t, ts.URL); st.JournalErrors == 0 {
		t.Error("journal failure not counted in /statz")
	}
	s.jobMu.Lock()
	n := len(s.jobs)
	s.jobMu.Unlock()
	if n != 0 {
		t.Errorf("unacknowledged job left in the map (%d)", n)
	}
}

// TestDrainDuringReplay starts the drain before replay has re-enqueued a
// journaled job: Recover must return promptly (not spin on the closed
// pool) and leave the job journaled as queued for the next start.
func TestDrainDuringReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	req := tinyFit()
	key := JobKey(req.Scheme, req.Compressor, nil, req.Training)
	raw, _ := json.Marshal(jobRecord{
		ID: "job-3", Key: key, Scheme: req.Scheme, Compressor: req.Compressor,
		Status: "queued", Request: req,
	})
	if err := st.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	s, err := New(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain() // SIGTERM lands before replay finishes
	done := make(chan error, 1)
	go func() { done <- s.Recover(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Recover during drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recover wedged on the drained pool")
	}
	// the job survives, still queued, for the next process
	if raw, ok, _ := st.Get(key); !ok {
		t.Error("queued job lost during drained replay")
	} else {
		var rec jobRecord
		json.Unmarshal(raw, &rec)
		if rec.Status != "queued" {
			t.Errorf("journal status = %q, want queued", rec.Status)
		}
	}
}
