package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

func observeRequest() core.ObserveRequest {
	return core.ObserveRequest{
		Cell:        core.Cell{Field: "P", Step: 1, Dims: []int{4, 8, 8}, Replicates: 1},
		Bound:       1e-3,
		Compressor:  "sz3",
		MetricNames: []string{"khan_surrogate", "stat"},
	}
}

// TestObserveIsTheLocalObservation: what /v1/observe answers is the
// checkpoint record of the cell as an in-process bench would observe it,
// bit for bit, computed over the node's own dataset cache and evaluator.
func TestObserveIsTheLocalObservation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := observeRequest()
	resp, raw := postJSON(t, ts.URL+"/v1/observe", req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("status %d, content type %q, body %s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}
	var got core.Observation
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&got); err != nil {
		t.Fatal(err)
	}
	cache, err := dataset.NewTiered(dataset.TieredConfig{CapacityBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var eval core.Evaluator
	want, err := req.Observe(context.Background(), cache, &eval)
	if err != nil {
		t.Fatal(err)
	}
	if got.Field != "P" || got.Step != 1 || got.Compressor != "sz3" || got.Bound != 1e-3 || got.Replicates != 1 ||
		got.ByteSize != want.ByteSize || math.Float64bits(got.CR) != math.Float64bits(want.CR) {
		t.Errorf("observation %+v, local %+v", got, want)
	}
	if len(got.Features) == 0 || len(got.Features) != len(want.Features) {
		t.Fatalf("%d features, local %d", len(got.Features), len(want.Features))
	}
	for k, w := range want.Features {
		if g, ok := got.Features[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("feature %s = %v, local %v", k, g, w)
		}
	}
	// a second bound over the same cell: the buffer is resident and the
	// error-agnostic metric's results are on it
	req.Bound = 1e-2
	if resp, body := postJSON(t, ts.URL+"/v1/observe", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("second bound: status %d body %s", resp.StatusCode, body)
	}
	st := statz(t, ts.URL)
	if st.DataCache.Misses != 1 || st.DataCache.MemHits != 1 || st.FeatureMemo.Hits == 0 {
		t.Errorf("data cache %+v, feature memo %+v: want one load, one hit, memo hits", st.DataCache, st.FeatureMemo)
	}
	if ep := st.Endpoints["/v1/observe"]; ep.Requests != 2 {
		t.Errorf("/statz counts %d observe requests, want 2", ep.Requests)
	}
}

// TestObserveRefusals covers the 4xx surface: the route validates like
// every other outside input, before any buffer is synthesized.
func TestObserveRefusals(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/v1/observe"
	if resp, err := http.Get(url); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %v, status %d, want 405", err, resp.StatusCode)
	}
	for name, tc := range map[string]struct {
		mutate func(*core.ObserveRequest)
		want   string
	}{
		"no dims":            {func(r *core.ObserveRequest) { r.Dims = nil }, "dims required"},
		"2-D":                {func(r *core.ObserveRequest) { r.Dims = []int{8, 8} }, "3-D"},
		"zero extent":        {func(r *core.ObserveRequest) { r.Dims = []int{4, 0, 8} }, "positive"},
		"over budget":        {func(r *core.ObserveRequest) { r.Dims = []int{1 << 10, 1 << 10, 1 << 10} }, "budget"},
		"unknown field":      {func(r *core.ObserveRequest) { r.Field = "nope" }, "unknown field"},
		"negative step":      {func(r *core.ObserveRequest) { r.Step = -1 }, "out of range"},
		"step past the end":  {func(r *core.ObserveRequest) { r.Step = 48 }, "out of range"},
		"unknown compressor": {func(r *core.ObserveRequest) { r.Compressor = "gzip9000" }, "gzip9000"},
		"unknown metric":     {func(r *core.ObserveRequest) { r.MetricNames = []string{"stat", "vibes"} }, "vibes"},
		"no replicates":      {func(r *core.ObserveRequest) { r.Replicates = 0 }, "replicates"},
		"too many":           {func(r *core.ObserveRequest) { r.Replicates = maxReplicates + 1 }, "replicates"},
	} {
		req := observeRequest()
		tc.mutate(&req)
		resp, body := postJSON(t, url, req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d body %s, want 400 naming %q", name, resp.StatusCode, body, tc.want)
		}
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"field":"P"}{"field":"U"}`))
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("two JSON values: %v, status %d, want 400", err, resp.StatusCode)
	}
	if st := statz(t, ts.URL); st.DataCache.Misses != 0 {
		t.Errorf("a refused request loaded %d buffers", st.DataCache.Misses)
	}
}

// TestObserveShedsWhenThePoolIsFull: the cell takes a predict-pool slot,
// so a saturated node sheds it with 429 + Retry-After like a predict, and
// a draining one refuses it with 503.
func TestObserveShedsWhenThePoolIsFull(t *testing.T) {
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
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one holds the worker, one the queue slot
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if resp, body := postJSON(t, ts.URL+"/v1/predict", khanRequest(float64(1+i))); resp.StatusCode != http.StatusOK {
				t.Errorf("occupier %d: status %d body %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	<-entered
	for deadline := time.Now().Add(10 * time.Second); s.pool.pending() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the queue slot never filled")
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest())
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("saturated: status %d Retry-After %q body %s, want 429 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	close(gate)
	wg.Wait()
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest()); resp.StatusCode != http.StatusOK {
		t.Errorf("after the pool cleared: status %d body %s", resp.StatusCode, body)
	}
	if st := statz(t, ts.URL); st.Rejected != 1 {
		t.Errorf("statz rejected = %d, want 1", st.Rejected)
	}
	s.Drain()
	resp, _ = postJSON(t, ts.URL+"/v1/observe", observeRequest())
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining: status %d, want 503 with Retry-After", resp.StatusCode)
	}
}

// TestObserveStopsWithItsRequest: the cell runs under the request's
// context, so a driver that has given up costs the node no metric and no
// compressor run.
func TestObserveStopsWithItsRequest(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body, _ := json.Marshal(observeRequest())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), context.Canceled.Error()) {
		t.Errorf("status %d body %s, want the context's error", w.Code, w.Body)
	}
	if _, misses := s.features.MemoStats(); misses != 0 {
		t.Errorf("%d metrics ran for a cancelled request", misses)
	}
}
