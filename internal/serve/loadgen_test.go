package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"
)

// LoadGenResult aggregates one load-generation run against a predictd
// endpoint.
type LoadGenResult struct {
	Requests  int // completed request attempts
	OK        int // 200 responses
	Rejected  int // 429 backpressure responses
	Errors    int // transport failures and non-200/429 statuses
	CacheHits int // 200 responses served from the result cache
	// Batches counts the requests issued against /v1/predict/batch;
	// Predictions counts individual predictions across both endpoints
	// (1 per single predict, the item count per successful batch).
	Batches     int
	Predictions int
}

// HitRate returns the fraction of OK responses served from cache.
func (r *LoadGenResult) HitRate() float64 {
	if r.OK == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.OK)
}

// LoadGenOpts shapes the traffic mix LoadGenWith offers beyond plain
// single predicts.
type LoadGenOpts struct {
	// BatchPct is the share of issued operations sent as one columnar
	// /v1/predict/batch request, in percent. A batched op folds the next
	// batch-size-many requests from the round-robin into one body, so
	// every input request is still covered exactly once per lap.
	BatchPct float64
	// BatchSizes is the batch-size distribution; each batched op draws
	// uniformly from it. Required when BatchPct > 0.
	BatchSizes []int
	// Seed drives the per-worker batch draws (deterministic per worker).
	Seed int64
}

// LoadGen drives POST /v1/predict with clients concurrent workers, each
// issuing perClient requests round-robin over reqs — the helper behind
// `make serve-check`'s load drill and the kernel-pool race drill.
// Transport errors are counted, not returned, so a drill can assert on
// the exact shape of a degraded run.
func LoadGen(baseURL string, clients, perClient int, reqs []PredictRequest) (*LoadGenResult, error) {
	return LoadGenWith(baseURL, clients, perClient, reqs, LoadGenOpts{})
}

// LoadGenWith is LoadGen with a declared traffic mix: a seeded fraction
// of operations fold consecutive requests into one columnar batch
// against /v1/predict/batch. Batched requests require data-coordinate
// (DataRef) inputs, since a batch body carries one shared scheme,
// compressor, and option set from the first folded request.
func LoadGenWith(baseURL string, clients, perClient int, reqs []PredictRequest, opts LoadGenOpts) (*LoadGenResult, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: loadgen needs at least one request")
	}
	if opts.BatchPct < 0 || opts.BatchPct > 100 {
		return nil, fmt.Errorf("serve: loadgen batch_pct %v outside [0, 100]", opts.BatchPct)
	}
	if opts.BatchPct > 0 {
		if len(opts.BatchSizes) == 0 {
			return nil, fmt.Errorf("serve: loadgen batch traffic needs batch sizes")
		}
		for _, r := range reqs {
			if r.Data == nil {
				return nil, fmt.Errorf("serve: loadgen batch traffic needs data-coordinate requests")
			}
		}
	}
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	var mu sync.Mutex
	total := &LoadGenResult{}
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(c)))
			local := LoadGenResult{}
			next := c * perClient // round-robin cursor into reqs
			for i := 0; i < perClient; i++ {
				if opts.BatchPct > 0 && rng.Float64()*100 < opts.BatchPct {
					size := opts.BatchSizes[rng.Intn(len(opts.BatchSizes))]
					issueBatch(baseURL, reqs, next, size, &local)
					next += size
				} else {
					issueSingle(baseURL, bodies[next%len(bodies)], &local)
					next++
				}
			}
			mu.Lock()
			total.Requests += local.Requests
			total.OK += local.OK
			total.Rejected += local.Rejected
			total.Errors += local.Errors
			total.CacheHits += local.CacheHits
			total.Batches += local.Batches
			total.Predictions += local.Predictions
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return total, nil
}

func issueSingle(baseURL string, body []byte, local *LoadGenResult) {
	local.Requests++
	resp, err := http.Post(baseURL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		local.Errors++
		return
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		local.OK++
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err == nil && pr.Cached {
			local.CacheHits++
		}
		local.Predictions++
	case http.StatusTooManyRequests:
		local.Rejected++
	default:
		local.Errors++
	}
}

// issueBatch folds size consecutive requests (round-robin from cursor)
// into one columnar batch under the first request's scheme, compressor,
// and options.
func issueBatch(baseURL string, reqs []PredictRequest, cursor, size int, local *LoadGenResult) {
	first := reqs[cursor%len(reqs)]
	breq := BatchRequest{
		Scheme:     first.Scheme,
		Compressor: first.Compressor,
		Options:    first.Options,
		Alpha:      first.Alpha,
		Dims:       first.Data.Dims,
	}
	for i := 0; i < size; i++ {
		r := reqs[(cursor+i)%len(reqs)]
		breq.Fields = append(breq.Fields, r.Data.Field)
		breq.Steps = append(breq.Steps, r.Data.Step)
	}
	body, err := json.Marshal(&breq)
	if err != nil {
		local.Errors++
		return
	}
	local.Requests++
	local.Batches++
	resp, err := http.Post(baseURL+"/v1/predict/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		local.Errors++
		return
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || br.Errors > 0 {
			local.Errors++
			return
		}
		local.OK++
		local.Predictions += br.Count
	case http.StatusTooManyRequests:
		local.Rejected++
	default:
		local.Errors++
	}
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestLoadGenDrivesPredictd drives a server with concurrent clients over
// a small working set and asserts a clean run with a high cache-hit
// rate — the soak drill behind `make serve-check`.
func TestLoadGenDrivesPredictd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Deadline: 30 * time.Second})
	defer s.Drain()

	// four distinct feature-backed requests against the non-training
	// khan2023 scheme: each computes once, then every repeat is a hit
	reqs := []PredictRequest{
		khanRequest(1.5),
		khanRequest(2.5),
		khanRequest(3.5),
		khanRequest(4.5),
	}
	const clients, perClient = 8, 25
	res, err := LoadGen(ts.URL, clients, perClient, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != clients*perClient {
		t.Errorf("ran %d requests, want %d", res.Requests, clients*perClient)
	}
	if res.Errors != 0 {
		t.Errorf("%d requests errored, want 0", res.Errors)
	}
	if res.Rejected != 0 {
		t.Errorf("%d requests rejected, want 0 (queue depth covers the load)", res.Rejected)
	}
	if res.OK != res.Requests {
		t.Errorf("%d OK of %d", res.OK, res.Requests)
	}
	// only a client's first laps can miss; everything else must hit the
	// cache
	if hr := res.HitRate(); hr < 0.9 {
		t.Errorf("cache hit rate %.2f, want >= 0.90", hr)
	}
	if st := statz(t, ts.URL); st.CacheHits == 0 || st.Endpoints["/v1/predict"].Requests != uint64(res.Requests) {
		t.Errorf("statz inconsistent with loadgen: %+v", st)
	}
}

func TestLoadGenNeedsRequests(t *testing.T) {
	if _, err := LoadGen("http://127.0.0.1:0", 1, 1, nil); err == nil {
		t.Error("LoadGen with no requests should error")
	}
}

// TestLoadGenBatchMix drives a mixed single/batch load and asserts the
// amortization arithmetic: every op completes, batched ops carry their
// full item count, and the prediction total exceeds the request total
// by exactly the batched surplus.
func TestLoadGenBatchMix(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Deadline: 30 * time.Second})
	defer s.Drain()

	// data-coordinate requests over a small corpus window, all under the
	// non-training khan2023 scheme (no fit needed)
	var reqs []PredictRequest
	for i, field := range []string{"P", "TC", "QVAPOR", "W"} {
		reqs = append(reqs, PredictRequest{
			Scheme:     "khan2023",
			Compressor: "sz3",
			Data:       &DataRef{Field: field, Step: i % 2, Dims: []int{8, 8, 8}},
		})
	}
	const clients, perClient = 4, 20
	res, err := LoadGenWith(ts.URL, clients, perClient, reqs, LoadGenOpts{
		BatchPct:   50,
		BatchSizes: []int{4, 8},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != clients*perClient {
		t.Errorf("ran %d requests, want %d", res.Requests, clients*perClient)
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Errorf("%d errors, %d rejected, want clean run", res.Errors, res.Rejected)
	}
	if res.Batches == 0 || res.Batches == res.Requests {
		t.Errorf("batches = %d of %d requests, want a genuine mix", res.Batches, res.Requests)
	}
	// singles carry 1 prediction each; every batch carries >= min(BatchSizes)
	singles := res.Requests - res.Batches
	if min := singles + 4*res.Batches; res.Predictions < min {
		t.Errorf("predictions = %d, want >= %d (%d singles + %d batches)", res.Predictions, min, singles, res.Batches)
	}
	st := statz(t, ts.URL)
	if st.BatchRequests != uint64(res.Batches) {
		t.Errorf("statz batch_requests = %d, loadgen counted %d", st.BatchRequests, res.Batches)
	}
	if got := uint64(res.Predictions - singles); st.BatchPreds != got {
		t.Errorf("statz batch_predictions = %d, loadgen counted %d", st.BatchPreds, got)
	}
}

func TestLoadGenBatchNeedsDataRefs(t *testing.T) {
	reqs := []PredictRequest{khanRequest(1.5)} // features, no DataRef
	if _, err := LoadGenWith("http://127.0.0.1:0", 1, 1, reqs, LoadGenOpts{BatchPct: 50, BatchSizes: []int{4}}); err == nil {
		t.Error("batch loadgen over feature requests should error")
	}
	if _, err := LoadGenWith("http://127.0.0.1:0", 1, 1, reqs, LoadGenOpts{BatchPct: 50}); err == nil {
		t.Error("batch loadgen without sizes should error")
	}
}
