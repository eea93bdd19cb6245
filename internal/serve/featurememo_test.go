package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"
)

// rahman2023 evaluates three error-agnostic metrics (stat, spatial,
// entropy) and one error-dependent one (distortion).
const rahmanAgnostic = 3

const (
	memoFitCells  = 4 // 2 fields × 2 steps
	memoFitBounds = 3
)

// fitAndWait trains rahman2023/sz3 on the four cells at three bounds
// scaled by k (a new k is a new job: an identical resubmit would be
// answered with the finished one) and waits for the job to finish.
func fitAndWait(t *testing.T, base string, k float64) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/fit", FitRequest{
		Scheme: "rahman2023", Compressor: "sz3",
		Training: TrainingSpec{
			Fields: []string{"P", "CLOUD"}, Steps: 2, Dims: []int{8, 8, 8},
			Bounds: []float64{k * 1e-5, k * 1e-4, k * 1e-3},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: status %d body %s", resp.StatusCode, body)
	}
	var fr FitResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var job JobView
		getJSON(t, base+"/v1/jobs/"+fr.JobID, &job)
		if job.Status == "done" {
			return
		}
		if job.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("fit job %s: %s %s", fr.JobID, job.Status, job.Error)
		}
	}
}

// sweepBatch asks for the four fitted cells at one bound.
func sweepBatch(t *testing.T, base string, bound float64) BatchResponse {
	t.Helper()
	resp, raw := postJSON(t, base+"/v1/predict/batch", BatchRequest{
		Scheme: "rahman2023", Compressor: "sz3", Dims: []int{8, 8, 8},
		Options: map[string]any{"pressio:abs": bound},
		Fields:  []string{"P", "P", "CLOUD", "CLOUD"},
		Steps:   []int{0, 1, 0, 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch at %g: status %d: %s", bound, resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != memoFitCells || out.Errors != 0 {
		t.Fatalf("batch at %g: %+v", bound, out)
	}
	return out
}

// TestFeatureMemoAcrossBounds: error-agnostic metric results stay on the
// resident buffer they were computed from, so a fit over B bounds and a
// batch at a fresh bound evaluate them once per cell — with answers
// bit-equal to a server that shares no buffers — and only an
// invalidation that names their class makes them run again.
func TestFeatureMemoAcrossBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("fits models over real compressor runs")
	}
	_, ts := newTestServer(t, Config{Deadline: time.Minute})
	// the no-sharing control: every cell is larger than a one-byte tier,
	// so each read gets a buffer of its own, freed with its last handle
	_, plain := newTestServer(t, Config{Deadline: time.Minute, DataCacheBytes: 1})

	// a fit over B bounds per cell: once per cell and metric
	fitAndWait(t, ts.URL, 1)
	st := statz(t, ts.URL)
	if want := uint64(memoFitCells * rahmanAgnostic); st.FeatureMemo.Misses != want {
		t.Errorf("fit ran error-agnostic metrics %d times, want %d (once per cell)", st.FeatureMemo.Misses, want)
	}
	if want := uint64(memoFitCells * rahmanAgnostic * (memoFitBounds - 1)); st.FeatureMemo.Hits != want {
		t.Errorf("fit memo hits = %d, want %d", st.FeatureMemo.Hits, want)
	}

	// a batch at a fresh bound over the already-served cells
	before := st
	got := sweepBatch(t, ts.URL, 3e-4)
	st = statz(t, ts.URL)
	if st.FeatureMemo.Misses != before.FeatureMemo.Misses {
		t.Errorf("fresh bound over resident cells ran error-agnostic metrics: misses %d -> %d",
			before.FeatureMemo.Misses, st.FeatureMemo.Misses)
	}
	if want := before.FeatureMemo.Hits + memoFitCells*rahmanAgnostic; st.FeatureMemo.Hits != want {
		t.Errorf("memo hits = %d, want %d", st.FeatureMemo.Hits, want)
	}
	for i, r := range got.Results {
		if r.Cached {
			t.Errorf("item %d at a fresh bound answered cached", i)
		}
	}
	// the memo stands outside the prediction partition
	if sum := st.CacheHits + st.CoalescedHits + st.CacheMisses; sum != memoFitCells {
		t.Errorf("partition sums to %d, want the %d predictions served", sum, memoFitCells)
	}

	// the same traffic against a server with no shared buffers
	sameAnswers := func(got, want BatchResponse) {
		t.Helper()
		for i := range want.Results {
			if math.Float64bits(got.Results[i].Prediction) != math.Float64bits(want.Results[i].Prediction) {
				t.Errorf("item %d: %v with the memo, %v without", i, got.Results[i].Prediction, want.Results[i].Prediction)
			}
		}
	}
	fitAndWait(t, plain.URL, 1)
	sameAnswers(got, sweepBatch(t, plain.URL, 3e-4))
	if pst := statz(t, plain.URL); pst.FeatureMemo.Hits != 0 {
		t.Errorf("a server that keeps no cell resident reused %d results", pst.FeatureMemo.Hits)
	}

	// pressio:abs evicts the model (distortion is stale) but leaves the
	// error-agnostic results valid: the refit is all hits
	invalidate := func(key string) {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/invalidate", InvalidateRequest{Keys: []string{key}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invalidate %s: status %d: %s", key, resp.StatusCode, raw)
		}
	}
	before = st
	invalidate("pressio:abs")
	if resp, _ := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
		Scheme: "rahman2023", Compressor: "sz3", Dims: []int{8, 8, 8}, Fields: []string{"P"}, Steps: []int{0},
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after the model was evicted: status %d, want 404", resp.StatusCode)
	}
	fitAndWait(t, ts.URL, 2)
	st = statz(t, ts.URL)
	if st.FeatureMemo.Misses != before.FeatureMemo.Misses {
		t.Errorf("invalidating pressio:abs recomputed error-agnostic metrics: misses %d -> %d",
			before.FeatureMemo.Misses, st.FeatureMemo.Misses)
	}

	// their own class makes the next sweep recompute, once per cell
	if want := before.FeatureMemo.Hits + memoFitCells*rahmanAgnostic*memoFitBounds; st.FeatureMemo.Hits != want {
		t.Errorf("refit memo hits = %d, want %d", st.FeatureMemo.Hits, want)
	}

	// their own class makes the next sweep recompute, once per cell
	before = st
	invalidate("predictors:error_agnostic")
	fitAndWait(t, ts.URL, 3)
	got = sweepBatch(t, ts.URL, 3e-4)
	st = statz(t, ts.URL)
	if want := before.FeatureMemo.Misses + memoFitCells*rahmanAgnostic; st.FeatureMemo.Misses != want {
		t.Errorf("after invalidating predictors:error_agnostic misses = %d, want %d", st.FeatureMemo.Misses, want)
	}
	fitAndWait(t, plain.URL, 3)
	sameAnswers(got, sweepBatch(t, plain.URL, 3e-4))
}
