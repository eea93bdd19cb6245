package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
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
		"schemes", "cache_hits", "coalesced_hits", "cache_misses",
		"cache_size", "batch_requests", "batch_predictions", "data_cache",
		"feature_memo", "rejected", "evicted_models", "evicted_cached",
		"process",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/statz missing top-level key %q", key)
		}
	}

	// one cache and one collapse: the keys of the second ones are gone
	for _, key := range []string{"cell_hits", "cell_cache_size", "dedup_collapses"} {
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
		"resident_bytes", "mapped_bytes",
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
