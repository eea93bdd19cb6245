package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/pressio"
)

// TestStatzProcessStats exercises the live process sampler: on Linux the
// RSS of a running test binary is necessarily positive, and the runtime
// counters must be coherent.
func TestStatzProcessStats(t *testing.T) {
	ps := readProcessStats()
	if runtime.GOOS == "linux" && ps.RSSBytes <= 0 {
		t.Errorf("rss_bytes = %d on linux, want > 0", ps.RSSBytes)
	}
	if ps.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", ps.Goroutines)
	}
	if ps.HeapAllocBytes == 0 {
		t.Error("heap_alloc_bytes = 0 for a live Go process")
	}
	runtime.GC()
	after := readProcessStats()
	if after.NumGC <= ps.NumGC {
		t.Errorf("num_gc did not advance across runtime.GC(): %d -> %d", ps.NumGC, after.NumGC)
	}
	if after.GCPauseP99MS < after.GCPauseP50MS {
		t.Errorf("gc pause p99 %.4f < p50 %.4f", after.GCPauseP99MS, after.GCPauseP50MS)
	}
}

// TestStatzJSONShape pins the /statz wire shape — the scenario harness
// and any external scraper key on these exact field names, so renaming
// one is a breaking change this test makes loud.
func TestStatzJSONShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{
		"uptime_seconds", "draining", "replaying", "models", "jobs",
		"jobs_retained", "jobs_evicted", "journal_errors", "endpoints",
		"schemes", "cache_hits", "cache_misses",
		"cache_size", "batch_requests", "batch_predictions", "data_cache",
		"feature_memo", "rejected", "evicted_models", "evicted_cached",
		"process",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/statz missing top-level key %q", key)
		}
	}

	// one cache and no request-level collapse: the keys of the others are
	// gone
	for _, key := range []string{"cell_hits", "cell_cache_size", "dedup_collapses", "coalesced_hits"} {
		if _, ok := doc[key]; ok {
			t.Errorf("/statz still reports %q", key)
		}
	}

	var dc map[string]json.RawMessage
	if err := json.Unmarshal(doc["data_cache"], &dc); err != nil {
		t.Fatalf("data_cache section: %v", err)
	}
	for _, key := range []string{
		"mem_hits", "disk_hits", "misses", "evictions", "digest_checks",
		"resident_bytes", "mapped_bytes", "kept_slots", "kept_bytes", "reattached",
	} {
		if _, ok := dc[key]; !ok {
			t.Errorf("/statz data_cache section missing key %q", key)
		}
	}

	var fm map[string]json.RawMessage
	if err := json.Unmarshal(doc["feature_memo"], &fm); err != nil {
		t.Fatalf("feature_memo section: %v", err)
	}
	for _, key := range []string{"hits", "misses"} {
		if _, ok := fm[key]; !ok {
			t.Errorf("/statz feature_memo section missing key %q", key)
		}
	}

	var proc map[string]json.RawMessage
	if err := json.Unmarshal(doc["process"], &proc); err != nil {
		t.Fatalf("process section: %v", err)
	}
	for _, key := range []string{
		"rss_bytes", "goroutines", "heap_alloc_bytes", "num_gc",
		"gc_pause_p50_ms", "gc_pause_p99_ms",
	} {
		if _, ok := proc[key]; !ok {
			t.Errorf("/statz process section missing key %q", key)
		}
	}
}

// TestStatzCountsKeptSlots: a khan2023 cell asked at three fresh bounds
// holds its sorted residual sample; evicted by another cell, its slot is
// kept beside its spill (/statz data_cache kept_slots, kept_bytes), and
// the reload that serves its next fresh bound re-attaches it
// (reattached), answering as a cell that never left would.
func TestStatzCountsKeptSlots(t *testing.T) {
	dims := []int{16, 32, 32}
	_, ts := newTestServer(t, Config{DataCacheBytes: 4 * 16 * 32 * 32, DataSpillDir: t.TempDir()})
	_, twin := newTestServer(t, Config{})
	predict := func(base, field string, abs float64) float64 {
		t.Helper()
		resp, body := postJSON(t, base+"/v1/predict", map[string]any{
			"scheme": "khan2023", "compressor": "sz3",
			"options": map[string]any{pressio.OptAbs: abs},
			"data":    map[string]any{"field": field, "step": 0, "dims": dims},
		})
		var r struct {
			Prediction float64 `json:"prediction"`
		}
		if err := json.Unmarshal(body, &r); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s at %g: HTTP %d %s", field, abs, resp.StatusCode, body)
		}
		return r.Prediction
	}
	for _, abs := range []float64{1e-2, 1e-3, 1e-4} {
		predict(ts.URL, "P", abs)
	}
	predict(ts.URL, "TC", 1e-4) // evicts P
	dc := statz(t, ts.URL).DataCache
	if dc.KeptSlots != 1 || dc.KeptBytes <= 0 {
		t.Fatalf("P's slot was not kept: %+v", dc)
	}
	for _, abs := range []float64{1e-5, 1e-6} {
		if got, want := predict(ts.URL, "P", abs), predict(twin.URL, "P", abs); got != want {
			t.Fatalf("P at %g: %v from the re-attached sample, %v from a cell asked once", abs, got, want)
		}
	}
	if dc := statz(t, ts.URL).DataCache; dc.DiskHits != 1 || dc.Reattached != 1 {
		t.Fatalf("want P reloaded once, re-attaching its slot: %+v", dc)
	}
}
