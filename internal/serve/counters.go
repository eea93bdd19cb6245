package serve

import (
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// latencyWindow bounds a ring of duration samples: the per-endpoint
// latencies /statz quantiles are computed over, and a pool's task
// durations.
const latencyWindow = 1024

// ring keeps the last latencyWindow samples (ms).
type ring struct {
	samples []float64
	next    int
}

func (r *ring) add(ms float64) {
	if len(r.samples) < latencyWindow {
		r.samples = append(r.samples, ms)
		return
	}
	r.samples[r.next] = ms
	r.next = (r.next + 1) % latencyWindow
}

// counters aggregates the serving metrics surfaced on /statz: per-
// endpoint request/error counts and latency samples, per-scheme request
// counts, and the cache/backpressure counters. Safe for concurrent use;
// hot-path cost is one mutex and a few map increments.
type counters struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointCounter
	schemes   map[string]uint64

	// every answered single predict and batch item lands in exactly one
	// of: served from the cache, computed
	cacheHits   uint64
	cacheMisses uint64

	batchRequests uint64
	batchPreds    uint64
	rejected      uint64
	evictedModels uint64
	evictedCached uint64
	evictedJobs   uint64
	journalErrors uint64
}

type endpointCounter struct {
	requests  uint64
	errors    uint64
	latencies ring
}

func newCounters() *counters {
	return &counters{
		start:     time.Now(),
		endpoints: map[string]*endpointCounter{},
		schemes:   map[string]uint64{},
	}
}

// observe records one finished request on an endpoint.
func (c *counters) observe(endpoint string, status int, ms float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.endpoints[endpoint]
	if ep == nil {
		ep = &endpointCounter{}
		c.endpoints[endpoint] = ep
	}
	ep.requests++
	if status >= 400 {
		ep.errors++
	}
	ep.latencies.add(ms)
}

func (c *counters) scheme(name string) { c.mu.Lock(); c.schemes[name]++; c.mu.Unlock() }
func (c *counters) cacheHit()          { c.mu.Lock(); c.cacheHits++; c.mu.Unlock() }
func (c *counters) cacheMiss()         { c.mu.Lock(); c.cacheMisses++; c.mu.Unlock() }

// batch records one batch request: every item is exactly one of a cache
// hit, a computed miss, or an itemized error (errors are outside
// hit/miss accounting).
func (c *counters) batch(items, hits, errs int) {
	c.mu.Lock()
	c.batchRequests++
	c.batchPreds += uint64(items)
	c.cacheHits += uint64(hits)
	if m := items - hits - errs; m > 0 {
		c.cacheMisses += uint64(m)
	}
	c.mu.Unlock()
}
func (c *counters) reject() { c.mu.Lock(); c.rejected++; c.mu.Unlock() }
func (c *counters) evicted(models, cached int) {
	c.mu.Lock()
	c.evictedModels += uint64(models)
	c.evictedCached += uint64(cached)
	c.mu.Unlock()
}
func (c *counters) jobsEvicted(n int) { c.mu.Lock(); c.evictedJobs += uint64(n); c.mu.Unlock() }
func (c *counters) journalError()     { c.mu.Lock(); c.journalErrors++; c.mu.Unlock() }

// EndpointStats is one endpoint's row in the /statz report.
type EndpointStats struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// Statz is the full /statz JSON document.
type Statz struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Draining      bool                     `json:"draining"`
	Replaying     bool                     `json:"replaying"`
	Models        int                      `json:"models"`
	Jobs          map[string]int           `json:"jobs"`
	JobsRetained  int                      `json:"jobs_retained"`
	JobsEvicted   uint64                   `json:"jobs_evicted"`
	JournalErrors uint64                   `json:"journal_errors"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Schemes       map[string]uint64        `json:"schemes"`
	CacheHits     uint64                   `json:"cache_hits"`
	CacheMisses   uint64                   `json:"cache_misses"`
	CacheSize     int                      `json:"cache_size"`
	BatchRequests uint64                   `json:"batch_requests"`
	BatchPreds    uint64                   `json:"batch_predictions"`
	Rejected      uint64                   `json:"rejected"`
	EvictedModels uint64                   `json:"evicted_models"`
	EvictedCached uint64                   `json:"evicted_cached"`
	// DataCache is the tiered dataset cache's tier accounting
	// (mem/disk/miss counts plus resident and mapped bytes); all-zero
	// when the cache is disabled.
	DataCache dataset.TieredStats `json:"data_cache"`
	// FeatureMemo counts error-agnostic metric evaluations on the miss
	// path: served from the buffer they were computed on (hits) or run
	// (misses). It is per metric, not per prediction, and so stands
	// outside the cache_hits/cache_misses partition: a
	// prediction counted there as one miss may be several memo hits here.
	FeatureMemo FeatureMemoStats `json:"feature_memo"`
	Process     ProcessStats     `json:"process"`
}

// FeatureMemoStats is the /statz feature_memo block.
type FeatureMemoStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// snapshot assembles the endpoint/scheme/cache section of Statz; the
// caller fills in registry/job/cache-size fields.
func (c *counters) snapshot() Statz {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Statz{
		UptimeSeconds: time.Since(c.start).Seconds(),
		Endpoints:     make(map[string]EndpointStats, len(c.endpoints)),
		Schemes:       make(map[string]uint64, len(c.schemes)),
		CacheHits:     c.cacheHits,
		CacheMisses:   c.cacheMisses,
		BatchRequests: c.batchRequests,
		BatchPreds:    c.batchPreds,
		Rejected:      c.rejected,
		EvictedModels: c.evictedModels,
		EvictedCached: c.evictedCached,
		JobsEvicted:   c.evictedJobs,
		JournalErrors: c.journalErrors,
	}
	for name, ep := range c.endpoints {
		s.Endpoints[name] = EndpointStats{
			Requests: ep.requests,
			Errors:   ep.errors,
			P50MS:    stats.Quantile(ep.latencies.samples, 0.50),
			P90MS:    stats.Quantile(ep.latencies.samples, 0.90),
			P99MS:    stats.Quantile(ep.latencies.samples, 0.99),
		}
	}
	for name, n := range c.schemes {
		s.Schemes[name] = n
	}
	return s
}
