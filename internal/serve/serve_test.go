package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pressio"
	"repro/internal/store"
)

// newTestServer builds a Server over a temp store (journal replayed)
// and wraps it in an httptest server. Pool workers are drained on
// cleanup so tests leave no goroutines behind.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Drain(); st.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func statz(t *testing.T, base string) Statz {
	t.Helper()
	var st Statz
	getJSON(t, base+"/statz", &st)
	return st
}

// TestEndToEndServing is the acceptance flow from the issue: fit a
// trained scheme through the API, serve predictions from the registry,
// observe the cache hit, and watch an invalidate-relevant option change
// evict the model.
func TestEndToEndServing(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over real compressor runs")
	}
	_, ts := newTestServer(t, Config{Workers: 2, Deadline: 60 * time.Second})
	base := ts.URL

	// 1. fit krasowska2021/sz3 over a small hurricane training set
	fit := FitRequest{
		Scheme:     "krasowska2021",
		Compressor: "sz3",
		Training: TrainingSpec{
			Fields: []string{"P", "CLOUD"},
			Steps:  2,
			Dims:   []int{8, 8, 8},
			Bounds: []float64{1e-4, 1e-2},
		},
	}
	resp, body := postJSON(t, base+"/v1/fit", fit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: status %d body %s", resp.StatusCode, body)
	}
	var fr FitResponse
	if err := json.Unmarshal(body, &fr); err != nil || fr.JobID == "" {
		t.Fatalf("fit response %s: %v", body, err)
	}

	// 2. poll the job until done
	var job JobView
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, base+"/v1/jobs/"+fr.JobID, &job)
		if job.Status == "done" || job.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fit job stuck in %q", job.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}
	if job.Samples != 8 { // 2 fields × 2 steps × 2 bounds
		t.Errorf("trained on %d samples, want 8", job.Samples)
	}
	if job.Model == "" {
		t.Fatal("done job must report its model key")
	}

	// 3. the model is listed
	var models []modelView
	getJSON(t, base+"/v1/models", &models)
	if len(models) != 1 || models[0].Key != job.Model {
		t.Fatalf("models = %+v, want the fitted model", models)
	}
	if models[0].Predictor != "linear_regression" || models[0].StateBytes == 0 {
		t.Errorf("model view %+v lacks predictor/state", models[0])
	}

	// 4. predict from data coordinates: first miss, then cache hit
	pred := PredictRequest{
		Scheme:     "krasowska2021",
		Compressor: "sz3",
		Options:    map[string]any{"pressio:abs": 1e-4},
		Data:       &DataRef{Field: "P", Step: 5, Dims: []int{8, 8, 8}},
	}
	resp, body = postJSON(t, base+"/v1/predict", pred)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d body %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Cached || pr.Model != job.Model || pr.Target != "size:compression_ratio" {
		t.Errorf("first predict %+v: want uncached, model-backed", pr)
	}
	resp, body = postJSON(t, base+"/v1/predict", pred)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat predict: status %d body %s", resp.StatusCode, body)
	}
	var pr2 PredictResponse
	json.Unmarshal(body, &pr2)
	if !pr2.Cached {
		t.Error("identical repeat request should be served from cache")
	}
	if pr2.Prediction != pr.Prediction {
		t.Errorf("cached prediction %v != fresh %v", pr2.Prediction, pr.Prediction)
	}
	if st := statz(t, base); st.CacheHits < 1 || st.Models != 1 {
		t.Errorf("statz after cache hit: %+v", st)
	}

	// 5. a changed error bound is a different cache key, not a stale hit
	pred2 := pred
	pred2.Options = map[string]any{"pressio:abs": 1e-2}
	resp, body = postJSON(t, base+"/v1/predict", pred2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with new bound: status %d body %s", resp.StatusCode, body)
	}
	var pr3 PredictResponse
	json.Unmarshal(body, &pr3)
	if pr3.Cached {
		t.Error("a changed pressio:abs must not be served from the old cache entry")
	}

	// 6. declaring the error bound invalidated evicts the model (quantized
	// entropy is error_dependent) and clears its cached predictions
	resp, body = postJSON(t, base+"/v1/invalidate", InvalidateRequest{Keys: []string{pressio.OptAbs}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: status %d body %s", resp.StatusCode, body)
	}
	var inv InvalidateResponse
	if err := json.Unmarshal(body, &inv); err != nil {
		t.Fatal(err)
	}
	if len(inv.EvictedModels) != 1 || inv.EvictedModels[0] != job.Model {
		t.Errorf("invalidate evicted %v, want [%s]", inv.EvictedModels, job.Model)
	}
	if inv.ClearedCached == 0 {
		t.Error("invalidate should clear the scheme's cached predictions")
	}

	// 7. with the model gone, predict tells the client to fit again
	resp, body = postJSON(t, base+"/v1/predict", pred)
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(body, []byte("/v1/fit")) {
		t.Errorf("predict after eviction: status %d body %s, want 404 pointing at /v1/fit", resp.StatusCode, body)
	}
	var models2 []modelView
	getJSON(t, base+"/v1/models", &models2)
	if len(models2) != 0 {
		t.Errorf("models after eviction = %+v, want none", models2)
	}
}

// khanRequest builds a non-training predict request with a direct
// feature vector — the cheap deterministic probe the concurrency tests
// lean on.
func khanRequest(feature float64) PredictRequest {
	return PredictRequest{
		Scheme:     "khan2023",
		Compressor: "sz3",
		Features:   []float64{feature},
	}
}

// TestConcurrentSinglesShareOneLoad pins the single path's accounting
// without a request-level collapse: k concurrent data-cell singles over m
// cells, all held in their slots until every one has missed the result
// cache, each compute and land in one of the two buckets with
// bit-equal answers per cell, while the data tier loads each cell once —
// the one collapse left. Afterwards the cells are plain cache hits, for a
// repeat single and for a batch over them.
func TestConcurrentSinglesShareOneLoad(t *testing.T) {
	const k, m = 6, 2
	fields := [m]string{"P", "TC"}
	gate := make(chan struct{})
	entered := make(chan struct{}, k)
	_, ts := newTestServer(t, Config{
		Workers: k,
		testHookPredict: func() {
			entered <- struct{}{}
			<-gate
		},
	})

	preds := make([]float64, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
				Scheme: "khan2023", Compressor: "sz3", Data: &DataRef{Field: fields[i%m]},
			})
			var pr PredictResponse
			if err := json.Unmarshal(body, &pr); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d body %s: %v", i, resp.StatusCode, body, err)
			}
			preds[i] = pr.Prediction
		}(i)
	}
	for i := 0; i < k; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(gate)
			t.Fatalf("%d of %d singles reached a slot", i, k)
		}
	}
	close(gate)
	wg.Wait()

	for i := m; i < k; i++ {
		if math.Float64bits(preds[i]) != math.Float64bits(preds[i%m]) {
			t.Errorf("request %d answered %v, request %d over the same cell %v", i, preds[i], i%m, preds[i%m])
		}
	}
	st := statz(t, ts.URL)
	if st.CacheHits+st.CacheMisses != k {
		t.Errorf("cache_hits %d + cache_misses %d, want the %d answered singles", st.CacheHits, st.CacheMisses, k)
	}
	if st.DataCache.Misses != m {
		t.Errorf("data_cache.misses = %d, want one load per cell (%d)", st.DataCache.Misses, m)
	}

	resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Scheme: "khan2023", Compressor: "sz3", Data: &DataRef{Field: fields[0]},
	})
	var pr PredictResponse
	json.Unmarshal(body, &pr)
	if resp.StatusCode != http.StatusOK || !pr.Cached || math.Float64bits(pr.Prediction) != math.Float64bits(preds[0]) {
		t.Errorf("repeat single: status %d body %s, want cached %v", resp.StatusCode, body, preds[0])
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
		Scheme: "khan2023", Compressor: "sz3", Fields: fields[:], Steps: make([]int, m),
	})
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != m {
		t.Fatalf("batch: status %d body %s: %v", resp.StatusCode, raw, err)
	}
	for j, r := range out.Results {
		if !r.Cached || math.Float64bits(r.Prediction) != math.Float64bits(preds[j]) {
			t.Errorf("batch item %d = %+v, want cached %v", j, r, preds[j])
		}
	}
}

// TestAbandonedSingleComputesNothing: a single's miss runs under its
// request's context, so a client that leaves while the miss is queued
// costs the node no load and caches nothing.
func TestAbandonedSingleComputesNothing(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		testHookPredict: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		if resp, body := postJSON(t, ts.URL+"/v1/predict", khanRequest(1)); resp.StatusCode != http.StatusOK {
			t.Errorf("occupier: status %d body %s", resp.StatusCode, body)
		}
	}()
	<-entered

	body, _ := json.Marshal(PredictRequest{Scheme: "khan2023", Compressor: "sz3", Data: &DataRef{Field: "P"}})
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan int)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)).WithContext(ctx))
		abandoned <- w.Code
	}()
	for deadline := time.Now().Add(10 * time.Second); s.pool.pending() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the single never queued")
		}
	}
	cancel()
	<-abandoned
	close(gate)
	<-occupied
	s.Drain() // the queued miss has run

	st := statz(t, ts.URL)
	if st.DataCache.Misses != 0 || st.CacheSize != 1 {
		t.Errorf("data_cache.misses = %d, cache_size = %d: want the abandoned cell neither loaded nor cached", st.DataCache.Misses, st.CacheSize)
	}
}

// TestPredictSaturationReturns429 fills the single worker and the
// one-deep queue, then shows further distinct requests shed with 429 +
// Retry-After.
func TestPredictSaturationReturns429(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		testHookPredict: func() {
			entered <- struct{}{}
			<-gate
		},
	})
	defer s.Drain()
	base := ts.URL

	// occupy the worker
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := postJSON(t, base+"/v1/predict", khanRequest(1))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupier: status %d body %s", resp.StatusCode, body)
		}
	}()
	<-entered

	// five more distinct requests: exactly one wins the queue slot, the
	// other four are shed
	const extra = 5
	var ok429, ok200 atomic.Int64
	var retryAfterMissing atomic.Int64
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/predict", khanRequest(float64(10+i)))
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				ok429.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					retryAfterMissing.Add(1)
				}
			case http.StatusOK:
				ok200.Add(1)
			default:
				t.Errorf("status %d body %s", resp.StatusCode, body)
			}
		}(i)
	}
	// shed responses return without the gate; wait for all four
	deadline := time.Now().Add(10 * time.Second)
	for ok429.Load() < extra-1 {
		if time.Now().After(deadline) {
			t.Fatalf("saw %d rejections, want %d", ok429.Load(), extra-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if ok429.Load() != extra-1 || ok200.Load() != 1 {
		t.Errorf("got %d×429 + %d×200, want %d×429 + 1×200", ok429.Load(), ok200.Load(), extra-1)
	}
	if retryAfterMissing.Load() != 0 {
		t.Error("429 responses must carry Retry-After")
	}
	if st := statz(t, base); st.Rejected != extra-1 {
		t.Errorf("statz rejected = %d, want %d", st.Rejected, extra-1)
	}
}

// TestPredictDeadlineReturns504 pins the worker past the request
// deadline and expects a gateway timeout.
func TestPredictDeadlineReturns504(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:         1,
		Deadline:        100 * time.Millisecond,
		testHookPredict: func() { <-gate },
	})
	base := ts.URL

	resp, body := postJSON(t, base+"/v1/predict", khanRequest(3))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d body %s, want 504", resp.StatusCode, body)
	}
	close(gate)
	s.Drain()
}

// TestDrainShedsNewWork verifies the SIGTERM path: health flips to 503
// and new predict/fit requests are refused while in-flight work
// completes.
func TestDrainShedsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := ts.URL

	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}
	s.Drain()
	s.Drain() // idempotent
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	resp, _ := postJSON(t, base+"/v1/predict", khanRequest(1))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("predict during drain = %d, want 503 + Retry-After", resp.StatusCode)
	}
	resp, _ = postJSON(t, base+"/v1/fit", FitRequest{Scheme: "krasowska2021", Compressor: "sz3"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fit during drain = %d, want 503", resp.StatusCode)
	}
	if !statz(t, base).Draining {
		t.Error("statz should report draining")
	}
}

// TestPredictValidation covers the 4xx surface.
func TestPredictValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL
	cases := []struct {
		name string
		body any
		want int
		frag string
	}{
		{"missing scheme", PredictRequest{Compressor: "sz3", Features: []float64{1}}, 400, "required"},
		{"unknown scheme", PredictRequest{Scheme: "nope", Compressor: "sz3", Features: []float64{1}}, 404, "nope"},
		{"unsupported compressor", PredictRequest{Scheme: "khan2023", Compressor: "lossless", Features: []float64{1}}, 400, "support"},
		{"both features and data", PredictRequest{Scheme: "khan2023", Compressor: "sz3", Features: []float64{1}, Data: &DataRef{Field: "P"}}, 400, "exactly one"},
		{"neither features nor data", PredictRequest{Scheme: "khan2023", Compressor: "sz3"}, 400, "exactly one"},
		{"wrong feature count", PredictRequest{Scheme: "khan2023", Compressor: "sz3", Features: []float64{1, 2}}, 400, "features"},
		{"no trained model", PredictRequest{Scheme: "krasowska2021", Compressor: "sz3", Features: []float64{1, 2, 3}}, 404, "/v1/fit"},
		{"oversized dims", PredictRequest{Scheme: "khan2023", Compressor: "sz3", Data: &DataRef{Field: "P", Dims: []int{4096, 4096, 4096}}}, 400, "budget"},
		{"bad option type", PredictRequest{Scheme: "khan2023", Compressor: "sz3", Features: []float64{1}, Options: map[string]any{"k": map[string]any{}}}, 400, "option"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, base+"/v1/predict", tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d body %s, want %d", resp.StatusCode, body, tc.want)
			}
			if !strings.Contains(strings.ToLower(string(body)), strings.ToLower(tc.frag)) {
				t.Errorf("body %s should mention %q", body, tc.frag)
			}
		})
	}

	// fit-side validation
	fitCases := []struct {
		name string
		body FitRequest
		want int
	}{
		{"non-training scheme", FitRequest{Scheme: "khan2023", Compressor: "sz3", Training: TrainingSpec{Fields: []string{"P"}, Steps: 1, Bounds: []float64{1e-4}}}, 400},
		{"missing training", FitRequest{Scheme: "krasowska2021", Compressor: "sz3"}, 400},
		{"cell budget", FitRequest{Scheme: "krasowska2021", Compressor: "sz3", Training: TrainingSpec{Fields: []string{"P"}, Steps: 100000, Bounds: []float64{1e-4}}}, 400},
	}
	for _, tc := range fitCases {
		t.Run("fit "+tc.name, func(t *testing.T) {
			resp, body := postJSON(t, base+"/v1/fit", tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d body %s, want %d", resp.StatusCode, body, tc.want)
			}
		})
	}

	if resp := getJSON(t, base+"/v1/jobs/job-99", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestPredictIntervalAlpha exercises the conformal interval path through
// the API once a ganguli2023 model exists.
func TestPredictIntervalAlpha(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over real compressor runs")
	}
	_, ts := newTestServer(t, Config{Deadline: 60 * time.Second})
	base := ts.URL
	fit := FitRequest{
		Scheme:     "ganguli2023",
		Compressor: "sz3",
		Training: TrainingSpec{
			Fields: []string{"P"},
			Steps:  4,
			Dims:   []int{8, 8, 8},
			Bounds: []float64{1e-4, 1e-3, 1e-2},
		},
	}
	resp, body := postJSON(t, base+"/v1/fit", fit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	var job JobView
	deadline := time.Now().Add(2 * time.Minute)
	for {
		getJSON(t, base+"/v1/jobs/"+fr.JobID, &job)
		if job.Status == "done" || job.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fit stuck in %q", job.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}

	pred := PredictRequest{
		Scheme:     "ganguli2023",
		Compressor: "sz3",
		Options:    map[string]any{"pressio:abs": 1e-3},
		Data:       &DataRef{Field: "P", Step: 9, Dims: []int{8, 8, 8}},
		Alpha:      0.1,
	}
	resp, body = postJSON(t, base+"/v1/predict", pred)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Interval) != 2 {
		t.Fatalf("alpha request should return an interval, got %+v", pr)
	}
	if pr.Interval[0] > pr.Prediction || pr.Interval[1] < pr.Prediction {
		t.Errorf("interval %v should bracket prediction %v", pr.Interval, pr.Prediction)
	}
}

// One request could kill the daemon: jin_model took any jin:quant_bins and
// sized its count window by the span of the codes, so 2^33 bins at a 1e-12
// bound asked for ~17 GB — an out-of-memory fatal, not a panic to recover.
// The metric refuses the option by name now: a single predict is a 400, a
// batch keeps its partial-failure contract (200, every item carrying the
// refusal), and the daemon answers the next request.
func TestJinQuantBinsPastSZ3sRangeIsRefusedNotFatal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := map[string]any{"pressio:abs": 1e-12, "jin:quant_bins": 8589934592}
	cell := &DataRef{Field: "P", Step: 1, Dims: []int{8, 8, 8}}

	resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Scheme: "jin2022", Compressor: "sz3", Options: bad, Data: cell})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "jin:quant_bins") {
		t.Errorf("predict: status %d body %s, want 400 naming jin:quant_bins", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{Scheme: "jin2022", Compressor: "sz3", Options: bad,
		Dims: cell.Dims, Fields: []string{"P", "U"}, Steps: []int{1, 1}})
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil || resp.StatusCode != http.StatusOK || batch.Errors != 2 {
		t.Fatalf("batch: status %d body %s (%v), want 200 with both items refused", resp.StatusCode, body, err)
	}
	for i, r := range batch.Results {
		if !strings.Contains(r.Error, "jin:quant_bins") {
			t.Errorf("batch item %d: error %q does not name jin:quant_bins", i, r.Error)
		}
	}

	ok := map[string]any{"pressio:abs": 1e-4, "jin:quant_bins": 1024}
	resp, body = postJSON(t, ts.URL+"/v1/predict", PredictRequest{Scheme: "jin2022", Compressor: "sz3", Options: ok, Data: cell})
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil || resp.StatusCode != http.StatusOK || !(pr.Prediction >= 1) {
		t.Errorf("the next predict: status %d body %s (%v), want a served ratio", resp.StatusCode, body, err)
	}
}
