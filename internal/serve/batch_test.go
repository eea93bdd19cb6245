package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/pressio"
)

// TestPredictBatchColumnar drives the columnar JSON batch body: one
// envelope, parallel fields/steps, item-aligned results, and cache hits
// on the second pass.
func TestPredictBatchColumnar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := BatchRequest{
		Scheme: "khan2023", Compressor: "sz3", Dims: []int{8, 8, 8},
		Fields: []string{"P", "TC", "P"},
		Steps:  []int{0, 0, 1},
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 3 || out.Errors != 0 || len(out.Results) != 3 {
		t.Fatalf("want 3 clean results, got %+v", out)
	}
	for i, r := range out.Results {
		if r.Error != "" || r.Prediction <= 0 {
			t.Fatalf("result %d: %+v", i, r)
		}
		if r.Cached {
			t.Fatalf("result %d cached on a cold cache", i)
		}
	}
	// the single-request path must agree with the batch path cell-for-cell
	sresp, sraw := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Scheme: "khan2023", Compressor: "sz3",
		Data: &DataRef{Field: "P", Step: 0, Dims: []int{8, 8, 8}},
	})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single status %d: %s", sresp.StatusCode, sraw)
	}
	var single PredictResponse
	if err := json.Unmarshal(sraw, &single); err != nil {
		t.Fatal(err)
	}
	if single.Prediction != out.Results[0].Prediction {
		t.Fatalf("single %v != batch %v for the same cell", single.Prediction, out.Results[0].Prediction)
	}
	if !single.Cached {
		t.Fatal("single request after a batch over the same cell must hit the cache")
	}

	// second batch: all hits
	resp, raw = postJSON(t, ts.URL+"/v1/predict/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if !r.Cached {
			t.Fatalf("result %d not cached on the second pass: %+v", i, r)
		}
	}
	st := statz(t, ts.URL)
	if st.BatchRequests != 2 || st.BatchPreds != 6 {
		t.Fatalf("batch counters: %+v", st)
	}
	// first batch: 3 misses; single: 1 hit; second batch: 3 hits
	if st.CacheMisses != 3 || st.CacheHits != 4 {
		t.Fatalf("want 3 misses + 4 hits, got misses=%d hits=%d", st.CacheMisses, st.CacheHits)
	}
	if st.DataCache.Misses == 0 {
		t.Fatalf("batch over data cells must flow through the tiered dataset cache: %+v", st.DataCache)
	}
}

// TestPredictBatchPartialFailure: a bad item errors in place, the rest
// of the batch lands, and the HTTP status stays 200.
func TestPredictBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
		Scheme: "khan2023", Compressor: "sz3", Dims: []int{8, 8, 8},
		Fields: []string{"P", "NOPE"},
		Steps:  []int{0, 0},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial failure must stay 200, got %d: %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 1 {
		t.Fatalf("want 1 itemized error, got %+v", out)
	}
	if out.Results[0].Error != "" || out.Results[1].Error == "" {
		t.Fatalf("error must land on item 1 only: %+v", out.Results)
	}
}

// TestBatchRepeatedCells pins what a batch answers for a cell it names
// more than once: a cold cell is computed at its first occurrence and
// reads back cached after it, a warm cell is a hit every time, a failed
// cell fails every time with its own error — and /statz counts each item.
func TestBatchRepeatedCells(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := func(fields []string, steps []int) ([]byte, BatchResponse) {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
			Scheme: "khan2023", Compressor: "sz3", Dims: []int{8, 8, 8}, Fields: fields, Steps: steps,
		})
		var out BatchResponse
		if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %v: status %d body %q: %v", fields, resp.StatusCode, raw, err)
		}
		return raw, out
	}
	_, warm := batch([]string{"P"}, []int{0})
	_, bad := batch([]string{"NOPE"}, []int{0})
	if bad.Errors != 1 || !strings.Contains(bad.Results[0].Error, `"NOPE"`) {
		t.Fatalf("an unknown field must fail its item by name: %+v", bad)
	}

	// cold TC t1 three times, warm P t0 three times, unknown NOPE twice
	fields := []string{"TC", "P", "NOPE", "TC", "P", "NOPE", "P", "TC"}
	steps := []int{1, 0, 0, 1, 0, 0, 0, 1}
	for pass, wantDelta := range []struct{ hits, misses uint64 }{{5, 1}, {6, 0}} {
		before := statz(t, ts.URL)
		raw, out := batch(fields, steps)
		cold := out.Results[0].Prediction
		if cold == 0 {
			t.Fatalf("pass %d: cold cell answered %s", pass, raw)
		}
		want := BatchResponse{Scheme: "khan2023", Compressor: "sz3", Target: warm.Target, Count: len(fields), Errors: 2}
		for i, f := range fields {
			switch f {
			case "TC":
				want.Results = append(want.Results, BatchItemResult{Prediction: cold, Cached: pass > 0 || i > 0})
			case "P":
				want.Results = append(want.Results, warm.Results[0])
				want.Results[i].Cached = true
			default:
				want.Results = append(want.Results, bad.Results[0])
			}
		}
		var wantRaw bytes.Buffer
		if err := json.NewEncoder(&wantRaw).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, wantRaw.Bytes()) {
			t.Errorf("pass %d reply\n got %s\nwant %s", pass, raw, wantRaw.Bytes())
		}
		st := statz(t, ts.URL)
		if d := st.CacheHits - before.CacheHits; d != wantDelta.hits {
			t.Errorf("pass %d: cache_hits +%d, want +%d", pass, d, wantDelta.hits)
		}
		if d := st.CacheMisses - before.CacheMisses; d != wantDelta.misses {
			t.Errorf("pass %d: cache_misses +%d, want +%d", pass, d, wantDelta.misses)
		}
		if st.BatchPreds-before.BatchPreds != uint64(len(fields)) || st.BatchRequests-before.BatchRequests != 1 {
			t.Errorf("pass %d: batch_predictions +%d in +%d requests, want +%d in +1",
				pass, st.BatchPreds-before.BatchPreds, st.BatchRequests-before.BatchRequests, len(fields))
		}
	}
}

// TestBatchReplyStatesItsLength: a batch reply carries its
// Content-Length, so a reply larger than the server buffers before
// chunking is not sent chunked — on a second batch of another length too.
func TestBatchReplyStatesItsLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, n := range []int{200, 3} {
		fields, steps := make([]string, n), make([]int, n)
		for i := range fields {
			fields[i], steps[i] = "P", i%4
		}
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
			Scheme: "khan2023", Compressor: "sz3", Dims: []int{8, 8, 8}, Fields: fields, Steps: steps,
		})
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%d items: status %d, Content-Length %d, Transfer-Encoding %q for a %d-byte reply",
				n, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
	}
}

// TestPredictBatchFeatureRows drives the flat row-major features matrix.
func TestPredictBatchFeatureRows(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
		Scheme: "khan2023", Compressor: "sz3",
		Features: []float64{3.5, 7.25}, // khan2023 has 1 feature → 2 rows
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 || out.Errors != 0 {
		t.Fatalf("want 2 clean rows, got %+v", out)
	}
}

// TestPredictBatchRejectsRetiredEncodings: the two streamed batch
// encodings are refused by content type with an error that names the body
// to send instead, never handed to the JSON decoder; any other content
// type is still read as the columnar JSON body.
func TestPredictBatchRejectsRetiredEncodings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const columnar = `{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8],"fields":["P","P"],"steps":[0,1]}`
	ndjson := `{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8]}` + "\n" +
		`{"field":"P","step":0}` + "\n" + `{"field":"P","step":1}` + "\n"
	cases := []struct {
		contentType, body string
		want              int
	}{
		{"application/x-ndjson", ndjson, http.StatusUnsupportedMediaType},
		{"application/x-ndjson; charset=utf-8", ndjson, http.StatusUnsupportedMediaType},
		{"Application/X-NDJSON", ndjson, http.StatusUnsupportedMediaType},
		{"application/x-json-frames", "\x02\x00\x00\x00{}", http.StatusUnsupportedMediaType},
		{"application/x-json-frames;charset=utf-8", "\x02\x00\x00\x00{}", http.StatusUnsupportedMediaType},
		// a retired content type is refused whatever the body holds
		{"application/x-ndjson", columnar, http.StatusUnsupportedMediaType},
		{"application/json", columnar, http.StatusOK},
		{"text/plain", columnar, http.StatusOK},
		{"application/x-www-form-urlencoded", columnar, http.StatusOK}, // curl -d
		{"", columnar, http.StatusOK},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict/batch", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.contentType != "" {
			req.Header.Set("Content-Type", tc.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("Content-Type %q: status %d, want %d (%s)", tc.contentType, resp.StatusCode, tc.want, raw)
			continue
		}
		if tc.want == http.StatusOK {
			var out BatchResponse
			if err := json.Unmarshal(raw, &out); err != nil || out.Count != 2 || out.Errors != 0 {
				t.Errorf("Content-Type %q: answer %s: %v", tc.contentType, raw, err)
			}
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "application/json") {
			t.Errorf("Content-Type %q: the 415 must name application/json, got %s", tc.contentType, raw)
		}
	}
	if st := statz(t, ts.URL); st.BatchRequests != 4 || st.BatchPreds != 8 {
		t.Errorf("only the four accepted batches may count: %d requests, %d predictions", st.BatchRequests, st.BatchPreds)
	}
}

// TestPredictBatchValidation pins the envelope-level failure statuses.
func TestPredictBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body BatchRequest
		want int
	}{
		{"missing scheme", BatchRequest{Compressor: "sz3", Fields: []string{"P"}, Steps: []int{0}}, 400},
		{"unknown scheme", BatchRequest{Scheme: "nope", Compressor: "sz3", Fields: []string{"P"}, Steps: []int{0}}, 404},
		{"no model", BatchRequest{Scheme: "krasowska2021", Compressor: "sz3", Fields: []string{"P"}, Steps: []int{0}}, 404},
		{"empty batch", BatchRequest{Scheme: "khan2023", Compressor: "sz3"}, 400},
		{"unparallel arrays", BatchRequest{Scheme: "khan2023", Compressor: "sz3", Fields: []string{"P"}, Steps: []int{0, 1}}, 400},
		{"both item forms", BatchRequest{Scheme: "khan2023", Compressor: "sz3", Fields: []string{"P"}, Steps: []int{0}, Features: []float64{1}}, 400},
		{"ragged features", BatchRequest{Scheme: "krasowska2021", Compressor: "sz3", Features: []float64{1}}, 404}, // model check precedes shape check
		{"non-3d dims", BatchRequest{Scheme: "khan2023", Compressor: "sz3", Dims: []int{8, 8}, Fields: []string{"P"}, Steps: []int{0}}, 400},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, raw)
		}
	}
}

// TestPredictConcurrentSameCell exercises the ungated single path under
// load (and under -race in the race gate): many concurrent requests for
// one cell — misses and cache hits in whatever mix the schedule
// produces — all land with the same answer.
func TestPredictConcurrentSameCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 24
	preds := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
				Scheme: "khan2023", Compressor: "sz3",
				Data: &DataRef{Field: "P", Step: 0},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			var out PredictResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Error(err)
				return
			}
			preds[i] = out.Prediction
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if preds[i] != preds[0] {
			t.Fatalf("request %d got %v, request 0 got %v", i, preds[i], preds[0])
		}
	}
}

// TestBatchCellInvalidate: an invalidation that stales a scheme clears
// the entries its batches cached and reports them in cleared_cached.
func TestBatchCellInvalidate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	batch := func(wantCached int) {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
			Scheme: "khan2023", Compressor: "sz3",
			Fields: []string{"P", "TC"}, Steps: []int{0, 0},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
		}
		if n := bytes.Count(raw, []byte(`"cached":true`)); n != wantCached {
			t.Errorf("batch reply marks %d items cached, want %d: %s", n, wantCached, raw)
		}
	}
	batch(0)
	batch(2)
	if s.cache.len() != 2 {
		t.Fatalf("want 2 cached cells, got %d", s.cache.len())
	}
	resp, raw := postJSON(t, ts.URL+"/v1/invalidate", InvalidateRequest{Keys: []string{"pressio:abs"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate status %d: %s", resp.StatusCode, raw)
	}
	var inv InvalidateResponse
	if err := json.Unmarshal(raw, &inv); err != nil {
		t.Fatal(err)
	}
	if s.cache.len() != 0 {
		t.Fatalf("stale cells must be cleared, %d remain", s.cache.len())
	}
	if inv.ClearedCached < 2 {
		t.Fatalf("cleared_cached must count cell entries, got %d", inv.ClearedCached)
	}
	batch(0) // the entries' encoded answers went with them
}

// TestCellBaseSeparatesEnvelopes: envelopes that differ in any one part
// — a byte moved between scheme and compressor included — get distinct
// bases, alpha ≤ 0 is one envelope (no interval), and a base costs the
// heap only its string.
func TestCellBaseSeparatesEnvelopes(t *testing.T) {
	type env struct {
		scheme, compressor, model string
		alpha                     float64
		dims                      [3]int
		opts                      pressio.Options
	}
	abs := func(v any) pressio.Options { return pressio.Options{pressio.OptAbs: v} }
	base := env{"khan2023", "sz3", "", 0, [3]int{16, 16, 16}, abs(1e-3)}
	variants := []env{
		base,
		{"khan2023s", "z3", "", 0, [3]int{16, 16, 16}, abs(1e-3)},
		{"khan2023", "sz3", "model/k", 0, [3]int{16, 16, 16}, abs(1e-3)},
		{"khan2023", "sz3", "", 0.9, [3]int{16, 16, 16}, abs(1e-3)},
		{"khan2023", "sz3", "", 0.95, [3]int{16, 16, 16}, abs(1e-3)},
		{"khan2023", "sz3", "", 0, [3]int{16, 16, 32}, abs(1e-3)},
		{"khan2023", "sz3", "", 0, [3]int{32, 16, 16}, abs(1e-3)},
		{"khan2023", "sz3", "", 0, [3]int{16, 16, 16}, abs(1e-4)},
		{"khan2023", "sz3", "", 0, [3]int{16, 16, 16}, abs("1e-3")},
		{"khan2023", "sz3", "", 0, [3]int{16, 16, 16}, pressio.Options{"pressio:rel": 1e-3}},
		{"khan2023", "sz3", "", 0, [3]int{16, 16, 16}, nil},
	}
	key := func(e env) string { return cellBase(e.scheme, e.compressor, e.opts, e.model, e.alpha, e.dims) }
	seen := map[string]int{}
	for i, e := range variants {
		if j, dup := seen[key(e)]; dup {
			t.Errorf("envelopes %d %+v and %d %+v share a base", j, variants[j], i, e)
		}
		seen[key(e)] = i
	}
	noAlpha := base
	noAlpha.alpha = -1
	if key(noAlpha) != key(base) {
		t.Error("alpha -1 and alpha 0 should be the same envelope")
	}
	if a := testing.AllocsPerRun(50, func() { key(base) }); a > 1 && !raceEnabled {
		t.Errorf("cellBase: %v allocs, want at most 1 (the base string)", a)
	}
}
