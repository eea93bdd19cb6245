package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// newNodeServer builds a Server with a NodeName over its own store dir,
// returning the store too (cluster tests reopen it across "restarts").
func newNodeServer(t *testing.T, dir, node string, cfg Config) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NodeName = node
	s, err := New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestRequestBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	huge := append([]byte(`{"scheme":"s","pad":"`), bytes.Repeat([]byte("x"), maxBodyBytes+1024)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized predict body = %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/fit", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fit body = %d, want 400", resp.StatusCode)
	}

	// a body is exactly one JSON value: whitespace after it is ignored,
	// anything else is a 400 from the decoder — never an answer to the
	// first value alone. (The fit body is valid JSON for a scheme that
	// does not train, so its own 400 comes from past the decoder.)
	const decodeErr = "bad request body"
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/predict", `{"scheme":"khan2023","compressor":"sz3","features":[1]}`, http.StatusOK},
		{"/v1/predict/batch", `{"scheme":"khan2023","compressor":"sz3","features":[1,2]}`, http.StatusOK},
		{"/v1/fit", `{"scheme":"khan2023","compressor":"sz3","training":{"fields":["P"],"steps":1,"bounds":[1e-4]}}`, http.StatusBadRequest},
		{"/v1/invalidate", `{"keys":["sz3:unrelated"]}`, http.StatusOK},
	} {
		post := func(body string) (int, string) {
			t.Helper()
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(raw)
		}
		for _, tail := range []string{"", "\n", " \r\n\t "} {
			if status, raw := post(tc.body + tail); status != tc.want || strings.Contains(raw, decodeErr) {
				t.Errorf("%s with trailing %q = %d %s, want %d from past the decoder", tc.path, tail, status, raw, tc.want)
			}
		}
		for _, tail := range []string{tc.body, "\n" + `{"field":"P"}`, "]", "x"} {
			if status, raw := post(tc.body + tail); status != http.StatusBadRequest || !strings.Contains(raw, decodeErr) {
				t.Errorf("%s with trailing %q = %d %s, want the decoder's 400", tc.path, tail, status, raw)
			}
		}
	}
}

func TestRetryAfterAdaptsToMeasuredLatency(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, FitWorkers: 1})

	// nothing measured yet: conservative floors
	if got := s.fitPool.retryAfter(2, 120); got != "2" {
		t.Errorf("cold fit Retry-After = %s, want 2", got)
	}
	if got := s.pool.retryAfter(1, 30); got != "1" {
		t.Errorf("cold predict Retry-After = %s, want 1", got)
	}

	// fits measured at ~4s median, one worker, empty queue → ~4s advice
	for i := 0; i < 32; i++ {
		s.fitPool.observe(4 * time.Second)
	}
	if got := s.fitPool.retryAfter(2, 120); got != "4" {
		t.Errorf("fit Retry-After at 4s median = %s, want 4", got)
	}

	// pathological latencies clamp instead of advising an hour
	for i := 0; i < latencyWindow; i++ {
		s.fitPool.observe(10 * time.Minute)
	}
	if got := s.fitPool.retryAfter(2, 120); got != "120" {
		t.Errorf("fit Retry-After clamp = %s, want 120", got)
	}

	// predict advice follows the predict pool's task p50 and worker
	// count: 2s median / 4 workers → 1s even before queue depth piles on
	for i := 0; i < 32; i++ {
		s.pool.observe(2 * time.Second)
	}
	if got := s.pool.retryAfter(1, 30); got != "1" {
		t.Errorf("predict Retry-After = %s, want 1", got)
	}
}

func TestAckBarrierGatesTheFitAck(t *testing.T) {
	barrierErr := errors.New("0/1 follower acks")
	var allow bool
	s, ts := newTestServer(t, Config{
		Deadline: time.Minute,
		AckBarrier: func(ctx context.Context) error {
			if allow {
				return nil
			}
			return barrierErr
		},
	})

	resp, body := postJSON(t, ts.URL+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fit with failing barrier = %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("barrier 503 without Retry-After")
	}
	// the unacknowledged job must be fully withdrawn: no job registered,
	// no journal record left to replay after a restart
	s.jobMu.Lock()
	njobs := len(s.jobs)
	s.jobMu.Unlock()
	if njobs != 0 {
		t.Errorf("%d jobs registered after withdrawn ack", njobs)
	}
	if recs, _ := s.journal.load(); len(recs) != 0 {
		t.Errorf("journal holds %d records after withdrawn ack", len(recs))
	}

	allow = true
	resp, body = postJSON(t, ts.URL+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit with passing barrier = %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	if job := waitJob(t, ts.URL, fr.JobID); job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}
}

func TestRecoverSkipsForeignJobsAndAdoptTakesThem(t *testing.T) {
	dir := t.TempDir()

	// node n2 accepts and finishes a fit, then "dies"
	s2, st2 := newNodeServer(t, dir, "n2", Config{Deadline: time.Minute})
	ts2 := httptest.NewServer(s2.Handler())
	resp, body := postJSON(t, ts2.URL+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	if !strings.HasPrefix(fr.JobID, "job-n2-") {
		t.Fatalf("node-scoped job ID = %q", fr.JobID)
	}
	if job := waitJob(t, ts2.URL, fr.JobID); job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}
	ts2.Close()
	s2.Drain()

	// simulate death mid-fit: rewrite the record as still running
	recs, err := (&journal{st: st2}).load()
	if err != nil || len(recs) != 1 {
		t.Fatalf("journal = %d records, %v", len(recs), err)
	}
	rec := recs[0]
	rec.Status = "running"
	rec.Model = ""
	if err := (&journal{st: st2}).put(rec); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	// the survivor n1 shares the replicated store contents (same dir here)
	s1, st1 := newNodeServer(t, dir, "n1", Config{Deadline: time.Minute})
	t.Cleanup(func() { s1.Drain(); st1.Close() })

	// Recover must not have claimed the foreign record: it belongs to n2
	// until a failover decision says otherwise
	s1.jobMu.Lock()
	_, claimed := s1.jobs[rec.ID]
	s1.jobMu.Unlock()
	if claimed {
		t.Fatal("Recover claimed a foreign node's job")
	}
	if raw, ok, _ := st1.Get(rec.Key); !ok {
		t.Fatal("foreign journal record deleted during Recover")
	} else if !bytes.Contains(raw, []byte(`"node":"n2"`)) {
		t.Fatalf("foreign record rewritten: %s", raw)
	}

	// failover: n1 adopts n2's jobs and honors the interrupted 202
	n, err := s1.Adopt(context.Background(), "n2")
	if err != nil || n != 1 {
		t.Fatalf("Adopt = %d, %v", n, err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	if job := waitJob(t, ts1.URL, fr.JobID); job.Status != "done" {
		t.Fatalf("adopted job failed: %s", job.Error)
	}
	// the record is re-authored: n1's own restarts now recover it
	raw, _, _ := st1.Get(rec.Key)
	if !bytes.Contains(raw, []byte(`"node":"n1"`)) {
		t.Errorf("adopted record still foreign: %s", raw)
	}
	// adopting again is a no-op
	if n, err := s1.Adopt(context.Background(), "n2"); err != nil || n != 0 {
		t.Errorf("second Adopt = %d, %v", n, err)
	}
}

func TestModelBytesEquivalentIgnoresSeqOnly(t *testing.T) {
	enc := func(e ModelEntry) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := ModelEntry{
		Key: "model/s/c/h", Scheme: "s", Compressor: "c",
		PredictorName: "linear_regression", Target: "size:compression_ratio",
		Features: []string{"f1", "f2"}, Samples: 4, State: []byte("state"),
	}
	withSeq := func(seq uint64) ModelEntry { e := base; e.Seq = seq; return e }

	// two nodes re-publishing the same deterministic fit differ only in
	// their per-node Seq — that is not divergence
	if !ModelBytesEquivalent(enc(withSeq(1)), enc(withSeq(7))) {
		t.Error("Seq-only difference reported as divergent")
	}
	// a different trained state is
	other := withSeq(1)
	other.State = []byte("other-state")
	if ModelBytesEquivalent(enc(withSeq(1)), enc(other)) {
		t.Error("divergent state reported as equivalent")
	}
	// undecodable values fall back to literal comparison
	if ModelBytesEquivalent([]byte("aaa"), []byte("bbb")) {
		t.Error("raw unequal bytes reported as equivalent")
	}
	if !ModelBytesEquivalent([]byte("aaa"), []byte("aaa")) {
		t.Error("identical bytes reported as divergent")
	}
}

func TestAbsorbKeepsProjectionsCoherent(t *testing.T) {
	// train a real model on one server to get valid registry bytes
	sA, stA := newNodeServer(t, t.TempDir(), "", Config{Deadline: time.Minute})
	tsA := httptest.NewServer(sA.Handler())
	t.Cleanup(func() { tsA.Close(); sA.Drain(); stA.Close() })
	resp, body := postJSON(t, tsA.URL+"/v1/fit", tinyFit())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	job := waitJob(t, tsA.URL, fr.JobID)
	if job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}
	modelKey := job.Model
	raw, ok, _ := stA.Get(modelKey)
	if !ok {
		t.Fatalf("model %s not in store", modelKey)
	}

	// a second server absorbs the replicated frame without fitting
	sB, tsB := newTestServer(t, Config{Deadline: time.Minute})
	sB.Absorb(store.Frame{Op: store.FramePut, Key: modelKey, Value: raw})
	var models []struct {
		Key      string `json:"key"`
		StateSHA string `json:"state_sha256"`
	}
	getJSON(t, tsB.URL+"/v1/models", &models)
	if len(models) != 1 || models[0].Key != modelKey {
		t.Fatalf("absorbed models = %+v", models)
	}
	if models[0].StateSHA == "" {
		t.Error("no state hash on absorbed model")
	}

	// and the absorbed model actually serves predictions
	resp, body = postJSON(t, tsB.URL+"/v1/predict", map[string]any{
		"scheme": "krasowska2021", "compressor": "sz3",
		"data":    map[string]any{"field": "P", "step": 1, "dims": []int{8, 8, 8}},
		"options": map[string]any{"pressio:abs": 1e-3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict from absorbed model = %d %s", resp.StatusCode, body)
	}

	// a replicated delete evicts it everywhere
	sB.Absorb(store.Frame{Op: store.FrameDelete, Key: modelKey})
	getJSON(t, tsB.URL+"/v1/models", &models)
	if len(models) != 0 {
		t.Errorf("models after absorbed delete = %+v", models)
	}
}

// TestAbsorbEvictsTheModelsCachedPredictions: a replicated put or delete
// of a model key drops every prediction cached from that model — cells a
// batch cached as much as a single's — so the next predict computes on
// whatever model the registry now holds.
func TestAbsorbEvictsTheModelsCachedPredictions(t *testing.T) {
	sA, stA := newNodeServer(t, t.TempDir(), "", Config{Deadline: time.Minute})
	tsA := httptest.NewServer(sA.Handler())
	t.Cleanup(func() { tsA.Close(); sA.Drain(); stA.Close() })
	fitModel := func(req FitRequest) (key string, raw []byte) {
		t.Helper()
		resp, body := postJSON(t, tsA.URL+"/v1/fit", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fit: %d %s", resp.StatusCode, body)
		}
		var fr FitResponse
		json.Unmarshal(body, &fr)
		job := waitJob(t, tsA.URL, fr.JobID)
		if job.Status != "done" {
			t.Fatalf("fit failed: %s", job.Error)
		}
		raw, ok, _ := stA.Get(job.Model)
		if !ok {
			t.Fatalf("model %s not in store", job.Model)
		}
		return job.Model, raw
	}
	key1, raw1 := fitModel(tinyFit())
	refit := tinyFit()
	refit.Training.Bounds = []float64{1e-3, 1e-2}
	key2, raw2 := fitModel(refit)

	sB, tsB := newTestServer(t, Config{Deadline: time.Minute})
	// batch also counts the items the raw reply marks cached: a hit's
	// bytes are copied from its cache entry, so they must go when it goes
	batch := func(wantCached int) BatchResponse {
		t.Helper()
		resp, raw := postJSON(t, tsB.URL+"/v1/predict/batch", BatchRequest{
			Scheme: "krasowska2021", Compressor: "sz3", Dims: []int{8, 8, 8},
			Options: map[string]any{"pressio:abs": 1e-3},
			Fields:  []string{"P", "P"}, Steps: []int{0, 1},
		})
		var out BatchResponse
		if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK || out.Errors != 0 {
			t.Fatalf("batch: status %d body %s: %v", resp.StatusCode, raw, err)
		}
		if n := bytes.Count(raw, []byte(`"cached":true`)); n != wantCached {
			t.Errorf("batch reply marks %d items cached, want %d: %s", n, wantCached, raw)
		}
		return out
	}
	single := func() (*http.Response, PredictResponse) {
		t.Helper()
		resp, raw := postJSON(t, tsB.URL+"/v1/predict", PredictRequest{
			Scheme: "krasowska2021", Compressor: "sz3",
			Options: map[string]any{"pressio:abs": 1e-3},
			Data:    &DataRef{Field: "P", Step: 2, Dims: []int{8, 8, 8}},
		})
		var pr PredictResponse
		json.Unmarshal(raw, &pr)
		return resp, pr
	}

	sB.Absorb(store.Frame{Op: store.FramePut, Key: key1, Value: raw1})
	batch(0)
	batch(2)
	if _, pr := single(); pr.Model != key1 || pr.Cached {
		t.Fatalf("first single = %+v, want computed on %s", pr, key1)
	}
	if n := statz(t, tsB.URL).CacheSize; n != 3 {
		t.Fatalf("cache_size = %d after 3 distinct cells, want 3", n)
	}

	// the key is replaced: nothing cached from the old bytes may answer
	sB.Absorb(store.Frame{Op: store.FramePut, Key: key1, Value: raw1})
	if n := statz(t, tsB.URL).CacheSize; n != 0 {
		t.Errorf("cache_size = %d after the model was replaced, want 0", n)
	}
	batch(0)
	batch(2)

	// the key is deleted: its entries go, and predict has no model
	sB.Absorb(store.Frame{Op: store.FrameDelete, Key: key1})
	if n := statz(t, tsB.URL).CacheSize; n != 0 {
		t.Errorf("cache_size = %d after the model was deleted, want 0", n)
	}
	if resp, _ := single(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("predict with no model = %d, want 404", resp.StatusCode)
	}

	// a new model arrives: the next predict is a miss computed on it
	before := statz(t, tsB.URL).CacheMisses
	sB.Absorb(store.Frame{Op: store.FramePut, Key: key2, Value: raw2})
	if resp, pr := single(); resp.StatusCode != http.StatusOK || pr.Model != key2 || pr.Cached {
		t.Errorf("predict after the new model = %d %+v, want computed on %s", resp.StatusCode, pr, key2)
	}
	if got := statz(t, tsB.URL).CacheMisses; got != before+1 {
		t.Errorf("cache_misses %d -> %d, want one miss on the new model", before, got)
	}
}
