package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pressio"
	"repro/internal/store"
)

// The kill-restart harness. Each cycle runs predictd's serving stack over
// a fault-injected filesystem, crashes it at a scripted point, restarts
// on the frozen directory state (the disk as the kernel left it), and
// checks three invariants:
//
//  1. no acknowledged fit job is lost — every 202 eventually reaches
//     "done" on the restarted server;
//  2. no model is published twice with divergent content for one
//     opthash — a publish that survived the crash is adopted, never
//     overwritten;
//  3. the store reopens clean, or is repaired by storecheck (torn WAL
//     tail truncated, stale temp snapshots removed) — never refused.

// do drives the server handler directly (no sockets — the harness must
// stay deterministic under -race).
func do(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
	return w
}

// waitTerminalRec polls a job through the handler until done/failed.
// found=false means the job does not exist (the lost-job signature).
func waitTerminalRec(h http.Handler, id string, timeout time.Duration) (JobView, bool) {
	deadline := time.Now().Add(timeout)
	for {
		w := do(h, http.MethodGet, "/v1/jobs/"+id, nil)
		if w.Code == http.StatusNotFound {
			return JobView{}, false
		}
		var job JobView
		json.Unmarshal(w.Body.Bytes(), &job)
		if job.Status == "done" || job.Status == "failed" {
			return job, true
		}
		if time.Now().After(deadline) {
			return job, true
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func crashFired(plan *faultinject.Plan) bool {
	for _, ev := range plan.Log() {
		if ev.Kind == faultinject.KindCrash {
			return true
		}
	}
	return false
}

type cycleResult struct {
	crashed    bool
	acked      string // job ID acknowledged with 202 before the crash
	violations []string
}

// runCrashCycle is one fit → crash → restart → verify loop. With
// loseJournal, every fit-job record is deleted from the frozen state
// before the restart, as a node that never journaled would leave it.
func runCrashCycle(t *testing.T, seed uint64, planText string, loseJournal bool) cycleResult {
	t.Helper()
	var res cycleResult
	violate := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}

	// ---- phase 1: run against the faulty filesystem until the crash
	plan, err := faultinject.Parse(seed, planText)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	efs := faultinject.NewErrFS(dir, plan)
	st, err := store.OpenFS(dir, efs)
	if err != nil {
		t.Fatalf("phase-1 open: %v", err)
	}
	st.Sync = true   // fsync per record, so fs-sync fault points fire
	st.Inject = plan // store-level crash points share the same script
	cfg := Config{Deadline: time.Minute}
	s, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatalf("phase-1 recover: %v", err)
	}
	h := s.Handler()

	ack := do(h, http.MethodPost, "/v1/fit", tinyFit())
	if ack.Code == http.StatusAccepted {
		var fr FitResponse
		json.Unmarshal(ack.Body.Bytes(), &fr)
		res.acked = fr.JobID
		// the fit pool always drives the job to a terminal status, even
		// when the store dies under it
		waitTerminalRec(h, res.acked, time.Minute)
	}
	s.Drain()
	st.Close()

	res.crashed = crashFired(plan)
	if !res.crashed {
		return res // the script never triggered; nothing to verify
	}
	// fs-level crashes froze the directory at the instant of death;
	// store-level crash points fired above the seam, so freeze now —
	// the store was already closed by the crash, the state is settled
	frozen := efs.FrozenDir()
	if frozen == "" {
		if frozen, err = efs.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	if loseJournal {
		loseJobRecords(t, frozen)
	}

	// ---- phase 2: fsck, restart on the frozen state, verify
	if _, err := store.Fsck(frozen, true); err != nil {
		violate("storecheck refused to repair: %v", err)
		return res
	}
	if rep, err := store.Fsck(frozen, false); err != nil || !rep.Clean() {
		violate("store not clean after repair: %+v, %v", rep, err)
	}
	st2, err := store.Open(frozen)
	if err != nil {
		violate("store did not reopen after repair: %v", err)
		return res
	}
	defer st2.Close()

	// what this opthash's model looked like before recovery ran
	req := tinyFit()
	modelKey := ModelKey(req.Scheme, req.Compressor, pressio.Options{}, req.Training)
	preModel, hadModel, _ := st2.Get(modelKey)

	s2, err := New(st2, cfg)
	if err != nil {
		violate("server did not restart: %v", err)
		return res
	}
	defer s2.Drain()
	h2 := s2.Handler()
	if w := do(h2, http.MethodGet, "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		violate("healthz before replay = %d, want 503", w.Code)
	}
	if err := s2.Recover(context.Background()); err != nil {
		violate("journal replay failed: %v", err)
		return res
	}

	if res.acked != "" {
		job, found := waitTerminalRec(h2, res.acked, time.Minute)
		switch {
		case !found:
			violate("lost acknowledged job %s", res.acked)
		case job.Status != "done":
			violate("acknowledged job %s did not converge: %s (%s)", res.acked, job.Status, job.Error)
		}
	}
	if hadModel {
		postModel, ok, _ := st2.Get(modelKey)
		if !ok {
			violate("published model %s vanished during recovery", modelKey)
		} else if !bytes.Equal(preModel, postModel) {
			violate("model %s re-published with divergent content", modelKey)
		}
	}
	return res
}

// loseJobRecords deletes every fit-job record from the store at dir.
func loseJobRecords(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys, err := st.Keys(jobPrefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := st.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillRestart sweeps every cataloged crash point with the journal
// enabled: all three invariants must hold at each.
func TestKillRestart(t *testing.T) {
	points := []struct {
		name string
		plan string
	}{
		// store-level crash points around the journal's own writes
		{"journal-queued-before", "put-before crash key=job/ count=1"},
		{"journal-queued-after", "put-after crash key=job/ count=1"},
		{"journal-running-after", "put-after crash key=job/ at=2 count=1"},
		{"journal-done-before", "put-before crash key=job/ at=3 count=1"},
		// around the model publish (the double-publish window)
		{"model-publish-before", "put-before crash key=model/ count=1"},
		{"model-publish-after", "put-after crash key=model/ count=1"},
		// below the seam: torn WAL appends and failed fsyncs
		{"wal-write-1", "fs-write crash key=wal.log at=1"},
		{"wal-write-2", "fs-write crash key=wal.log at=2"},
		{"wal-write-3", "fs-write crash key=wal.log at=3"},
		{"wal-fsync-2", "fs-sync crash key=wal.log at=2"},
		{"wal-fsync-3", "fs-sync crash key=wal.log at=3"},
	}
	for _, tc := range points {
		t.Run(tc.name, func(t *testing.T) {
			res := runCrashCycle(t, 1, tc.plan, false)
			if !res.crashed {
				t.Fatalf("crash point %q never fired — the catalog is stale", tc.plan)
			}
			for _, v := range res.violations {
				t.Errorf("invariant violated: %s", v)
			}
		})
	}
}

// TestKillRestartSeedSweep replays randomized crash scripts across a
// fixed seed set — the `make crash-check` sweep. Rates are deterministic
// per seed, so a failure reproduces from the seed alone.
func TestKillRestartSeedSweep(t *testing.T) {
	crashes := 0
	for seed := uint64(1); seed <= 6; seed++ {
		plan := "fs-write crash key=wal.log rate=0.15; fs-sync crash rate=0.1; put-after crash key=model/ rate=0.3"
		res := runCrashCycle(t, seed, plan, false)
		if res.crashed {
			crashes++
		}
		for _, v := range res.violations {
			t.Errorf("seed %d: invariant violated: %s", seed, v)
		}
	}
	if crashes == 0 {
		t.Error("no seed in the sweep produced a crash — widen the rates")
	}
	t.Logf("seed sweep: %d/6 cycles crashed", crashes)
}

// TestCrashDuringCompactRename tears the snapshot rename mid-compact:
// storecheck must sweep the orphaned temp and the journal + model must
// survive untouched.
func TestCrashDuringCompactRename(t *testing.T) {
	plan := faultinject.New(1, faultinject.Rule{
		Op: faultinject.OpFSRename, Kind: faultinject.KindCrash, Worker: -1,
	})
	dir := filepath.Join(t.TempDir(), "store")
	efs := faultinject.NewErrFS(dir, plan)
	st, err := store.OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	st.Sync = true
	s, err := New(st, Config{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ack := do(h, http.MethodPost, "/v1/fit", tinyFit())
	if ack.Code != http.StatusAccepted {
		t.Fatalf("fit: %d %s", ack.Code, ack.Body)
	}
	var fr FitResponse
	json.Unmarshal(ack.Body.Bytes(), &fr)
	if job, _ := waitTerminalRec(h, fr.JobID, time.Minute); job.Status != "done" {
		t.Fatalf("fit did not complete: %+v", job)
	}
	if err := st.Compact(); err == nil {
		t.Fatal("Compact should have crashed at the rename")
	}
	s.Drain()
	st.Close()

	frozen := efs.FrozenDir()
	if frozen == "" {
		t.Fatal("rename crash did not freeze the directory")
	}
	rep, err := store.Fsck(frozen, true)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if len(rep.StaleTemps) != 1 || !rep.TempsRemoved {
		t.Errorf("fsck should sweep the orphaned compact temp: %+v", rep)
	}
	st2, err := store.Open(frozen)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := New(st2, Config{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	job, found := waitTerminalRec(s2.Handler(), fr.JobID, time.Minute)
	if !found || job.Status != "done" || job.Model == "" {
		t.Errorf("job after torn compact = %+v (found=%v), want done with model", job, found)
	}
	if n := s2.Registry().Len(); n != 1 {
		t.Errorf("registry has %d models after torn compact, want 1", n)
	}
}

// TestCrashHarnessCatchesJournalLoss is the harness's negative control:
// with the journal lost between the crash and the restart, a crash after
// the fit ack demonstrably loses the acknowledged job — proving the
// journal (not luck) carries the invariant, and that the harness can
// actually detect a violation.
func TestCrashHarnessCatchesJournalLoss(t *testing.T) {
	res := runCrashCycle(t, 1, "put-before crash key=model/ count=1", true)
	if !res.crashed {
		t.Fatal("crash point never fired")
	}
	if res.acked == "" {
		t.Fatal("fit was never acknowledged; the control needs an ack to lose")
	}
	lost := false
	for _, v := range res.violations {
		if strings.Contains(v, "lost acknowledged job") {
			lost = true
		}
	}
	if !lost {
		t.Errorf("journal-less crash produced violations %v, want a lost acknowledged job", res.violations)
	}
}

// TestKillDuringBatchFlush kills the node while a coalesced batch flush
// is mid-computation — the instant the tentpole's hot path is busiest.
// The disk is frozen exactly when the flush worker starts (via the
// testHookPredict crash point), then the frozen state is restarted:
// the fit job acked before the kill must still be done with its model
// intact, and the restarted node must serve batch traffic again. Batch
// work in flight at the kill was never acked, so it may vanish — but it
// must not corrupt the store.
func TestKillDuringBatchFlush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	efs := faultinject.NewErrFS(dir, faultinject.New(1))
	st, err := store.OpenFS(dir, efs)
	if err != nil {
		t.Fatal(err)
	}
	st.Sync = true

	flushStarted := make(chan struct{})
	gate := make(chan struct{})
	var arm sync.Once
	cfg := Config{Deadline: time.Minute}
	cfg.testHookPredict = func() {
		arm.Do(func() { close(flushStarted) })
		<-gate
	}
	s, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// acked work that must survive: a fit driven to done before the kill
	ack := do(h, http.MethodPost, "/v1/fit", tinyFit())
	if ack.Code != http.StatusAccepted {
		t.Fatalf("fit ack = %d: %s", ack.Code, ack.Body.String())
	}
	var fr FitResponse
	json.Unmarshal(ack.Body.Bytes(), &fr)
	if job, found := waitTerminalRec(h, fr.JobID, time.Minute); !found || job.Status != "done" {
		t.Fatalf("pre-kill job = %+v (found=%v), want done", job, found)
	}

	// put a batch flush in flight, then freeze the disk while it runs
	batchReq := BatchRequest{
		Scheme: "khan2023", Compressor: "sz3", Dims: []int{8, 8, 8},
		Fields: []string{"P", "TC"}, Steps: []int{0, 0},
	}
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		do(h, http.MethodPost, "/v1/predict/batch", batchReq)
	}()
	<-flushStarted
	frozen, err := efs.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	// post-mortem cleanup of the "dead" process: release the orphaned
	// flush and tear down — none of it can reach the frozen snapshot
	close(gate)
	<-inflight
	s.Drain()
	st.Close()

	// restart on the disk as the kill left it
	if _, err := store.Fsck(frozen, true); err != nil {
		t.Fatalf("storecheck refused to repair: %v", err)
	}
	st2, err := store.Open(frozen)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := New(st2, Config{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	h2 := s2.Handler()

	job, found := waitTerminalRec(h2, fr.JobID, time.Minute)
	switch {
	case !found:
		t.Errorf("lost acknowledged job %s across the kill", fr.JobID)
	case job.Status != "done":
		t.Errorf("acknowledged job %s = %s (%s), want done", fr.JobID, job.Status, job.Error)
	}
	req := tinyFit()
	key := ModelKey(req.Scheme, req.Compressor, pressio.Options{}, req.Training)
	if _, ok, _ := st2.Get(key); !ok {
		t.Errorf("published model %s vanished across the kill", key)
	}
	if w := do(h2, http.MethodPost, "/v1/predict/batch", batchReq); w.Code != http.StatusOK {
		t.Errorf("restarted node batch predict = %d: %s", w.Code, w.Body.String())
	}
}
