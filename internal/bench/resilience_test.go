package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// resilienceSpec is a small spec for fault drills.
func resilienceSpec() *Spec {
	return &Spec{
		Fields:      []string{"P", "CLOUD", "U"},
		Steps:       2,
		Dims:        []int{4, 12, 12},
		Compressors: []string{"sz3"},
		Bounds:      []float64{1e-4, 1e-2},
		Schemes:     []string{"khan2023"},
		Folds:       3,
		Workers:     4,
		Seed:        7,
	}
}

// TestScriptedPlanReplaysDeterministically runs the same scripted fault
// plan twice — straggler delays on one worker plus permanent kills of
// two specific cells — and asserts the identical failure sequence, the
// identical surviving-observation set, and the identical failed set.
func TestScriptedPlanReplaysDeterministically(t *testing.T) {
	spec0 := resilienceSpec()
	spec0.defaults()
	// script against concrete cells so the replay is schedule-independent
	killA := cellKey(spec0, "P", 0, 1e-4, "sz3")
	killB := cellKey(spec0, "CLOUD", 1, 1e-2, "sz3")

	type outcome struct {
		log     []faultinject.Event
		obs     []string
		failed  []string
		medapes string
	}
	run := func() outcome {
		plan := faultinject.New(99,
			// permanent death of two cells: every attempt fails
			faultinject.Rule{Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Key: killA},
			faultinject.Rule{Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Key: killB},
			// straggler: worker 0 delayed on every attempt
			faultinject.Rule{Op: faultinject.OpTask, Kind: faultinject.KindDelay, Delay: time.Millisecond, Worker: 0},
		)
		spec := resilienceSpec()
		spec.Workers = 1 // deterministic schedule → deterministic event order
		spec.Retries = 1
		spec.FaultPlan = plan
		res, err := CollectDetailed(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		report, err := Evaluate(spec, res.Observations)
		if err != nil {
			t.Fatal(err)
		}
		report.Failed = res.Failed
		var o outcome
		o.log = plan.Log()
		for _, ob := range res.Observations {
			o.obs = append(o.obs, fmt.Sprintf("%s/%s/%d/%g=%.6f", ob.Compressor, ob.Field, ob.Step, ob.Bound, ob.CR))
		}
		for _, f := range res.Failed {
			o.failed = append(o.failed, fmt.Sprintf("%s/%s/%d/%g", f.Compressor, f.Field, f.Step, f.Bound))
		}
		sort.Strings(o.failed)
		for _, row := range report.Rows {
			if row.HasMedAPE {
				o.medapes += fmt.Sprintf("%s=%.9f;", row.Scheme, row.MedAPE)
			}
		}
		return o
	}

	a, b := run(), run()
	if len(a.failed) != 2 {
		t.Fatalf("failed = %v, want the 2 scripted kills", a.failed)
	}
	if fmt.Sprint(a.log) != fmt.Sprint(b.log) {
		t.Errorf("failure sequence diverged:\n%v\n%v", a.log, b.log)
	}
	if fmt.Sprint(a.obs) != fmt.Sprint(b.obs) {
		t.Errorf("surviving observations diverged")
	}
	if fmt.Sprint(a.failed) != fmt.Sprint(b.failed) {
		t.Errorf("failed sets diverged: %v vs %v", a.failed, b.failed)
	}
	if a.medapes != b.medapes || a.medapes == "" {
		t.Errorf("report quality diverged: %q vs %q", a.medapes, b.medapes)
	}
}

// TestRestartRetriesOnlyFailedCells is the checkpoint half of the
// acceptance scenario: a run with scripted permanent failures records
// the failed cells; a restarted run over the same store recomputes ONLY
// those cells and ends complete.
func TestRestartRetriesOnlyFailedCells(t *testing.T) {
	spec0 := resilienceSpec()
	spec0.defaults()
	killA := cellKey(spec0, "P", 0, 1e-4, "sz3")
	killB := cellKey(spec0, "U", 1, 1e-2, "sz3")

	dir := t.TempDir()
	var computed atomic.Int64
	progress := func(line string) {
		if !strings.HasPrefix(line, "queue:") && !strings.HasPrefix(line, "FAILED") {
			computed.Add(1)
		}
	}

	spec := resilienceSpec()
	spec.StoreDir = dir
	spec.Retries = 1
	spec.Progress = progress
	spec.FaultPlan = faultinject.New(5,
		faultinject.Rule{Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Key: killA},
		faultinject.Rule{Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Key: killB},
	)
	res, err := CollectDetailed(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(spec.Fields) * spec.Steps * len(spec.Bounds) * len(spec.Compressors)
	if len(res.Failed) != 2 || len(res.Observations) != total-2 {
		t.Fatalf("run 1: %d observations, failed %v", len(res.Observations), res.Failed)
	}
	// failures are recorded in the store for the operator
	info, err := StoreInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "failed cells awaiting retry: 2") {
		t.Errorf("StoreInfo does not surface the failures:\n%s", info)
	}

	// restart without the fault plan: only the 2 failed cells recompute
	computed.Store(0)
	spec2 := resilienceSpec()
	spec2.StoreDir = dir
	spec2.Progress = progress
	res2, err := CollectDetailed(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 2 {
		t.Errorf("restart recomputed %d cells, want exactly the 2 failed ones", n)
	}
	if len(res2.Observations) != total || len(res2.Failed) != 0 {
		t.Errorf("restart: %d observations, %d failed; want %d, 0",
			len(res2.Observations), len(res2.Failed), total)
	}
	if res2.QueueStats.Skipped != total-2 {
		t.Errorf("restart skipped %d cells from checkpoint, want %d", res2.QueueStats.Skipped, total-2)
	}
	// the fail/ records are cleared once the cells succeed
	info2, err := StoreInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(info2, "failed cells awaiting retry") {
		t.Errorf("stale failure records after successful retry:\n%s", info2)
	}
}

// TestKilledRunResumesFromCheckpoint cancels a run mid-flight (the
// SIGINT path of cmd/predict-bench) and asserts the restart completes
// from the checkpoint without recomputing finished cells.
func TestKilledRunResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var firstRun atomic.Int64
	spec := resilienceSpec()
	spec.Workers = 2
	spec.StoreDir = dir
	// straggler delays keep cells in flight long enough for the "kill"
	// below to land mid-sweep instead of after the queue drains
	spec.FaultPlan = faultinject.New(11, faultinject.Rule{
		Op: faultinject.OpTask, Kind: faultinject.KindDelay,
		Delay: 40 * time.Millisecond, Worker: -1,
	})
	spec.Progress = func(line string) {
		if strings.HasPrefix(line, "queue:") || strings.HasPrefix(line, "FAILED") {
			return
		}
		// "kill" the driver partway through the sweep
		if firstRun.Add(1) == 3 {
			cancel()
		}
	}
	res, err := CollectDetailed(ctx, spec)
	total := len(spec.Fields) * spec.Steps * len(spec.Bounds) * len(spec.Compressors)
	if err != nil {
		// every cell failed before any completed — possible only if
		// cancellation raced ahead of all checkpoints; retry logic below
		// still covers resumption, so only hard-fail on unexpected errors
		t.Fatalf("interrupted collect: %v", err)
	}
	if len(res.Observations) >= total {
		t.Fatalf("cancellation came too late to test resumption (%d/%d cells)", len(res.Observations), total)
	}
	if res.QueueStats.Cancelled == 0 {
		t.Error("no tasks recorded as cancelled")
	}

	// restart: completes, recomputing only what is not checkpointed
	var recomputed atomic.Int64
	spec2 := resilienceSpec()
	spec2.Workers = 2
	spec2.StoreDir = dir
	spec2.Progress = func(line string) {
		if !strings.HasPrefix(line, "queue:") && !strings.HasPrefix(line, "FAILED") {
			recomputed.Add(1)
		}
	}
	res2, err := CollectDetailed(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Observations) != total || len(res2.Failed) != 0 {
		t.Fatalf("restart incomplete: %d/%d observations, failed %v",
			len(res2.Observations), total, res2.Failed)
	}
	checkpointed := res2.QueueStats.Skipped
	if int(recomputed.Load())+checkpointed != total {
		t.Errorf("recomputed %d + checkpointed %d != %d", recomputed.Load(), checkpointed, total)
	}
	if checkpointed == 0 {
		t.Error("nothing resumed from checkpoint — the first run's work was lost")
	}
}
