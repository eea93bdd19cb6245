package serve

import (
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// latencyWindow bounds the per-endpoint latency sample ring /statz
// quantiles are computed over.
const latencyWindow = 1024

// counters aggregates the serving metrics surfaced on /statz: per-
// endpoint request/error counts and latency samples, per-scheme request
// counts, and the cache/collapse/backpressure counters. Safe for concurrent
// use; hot-path cost is one mutex and a few map increments.
type counters struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointCounter
	schemes   map[string]uint64

	// every answered single predict and batch item lands in exactly one
	// of: served from the cache, shared another request's in-flight
	// computation, computed
	cacheHits     uint64
	coalescedHits uint64
	cacheMisses   uint64

	batchRequests uint64
	batchPreds    uint64
	rejected      uint64
	evictedModels uint64
	evictedCached uint64
	evictedJobs   uint64
	journalErrors uint64

	fitDurations []float64 // ring of the last latencyWindow fit-execution ms
	fitNext      int
}

type endpointCounter struct {
	requests  uint64
	errors    uint64
	latencies []float64 // ring of the last latencyWindow request ms
	next      int
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
	if len(ep.latencies) < latencyWindow {
		ep.latencies = append(ep.latencies, ms)
	} else {
		ep.latencies[ep.next] = ms
		ep.next = (ep.next + 1) % latencyWindow
	}
}

func (c *counters) scheme(name string) { c.mu.Lock(); c.schemes[name]++; c.mu.Unlock() }
func (c *counters) cacheHit()          { c.mu.Lock(); c.cacheHits++; c.mu.Unlock() }
func (c *counters) cacheMiss()         { c.mu.Lock(); c.cacheMisses++; c.mu.Unlock() }
func (c *counters) coalescedHit()      { c.mu.Lock(); c.coalescedHits++; c.mu.Unlock() }

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

// fitObserve records one fit execution's duration (ms) for the adaptive
// fit Retry-After.
func (c *counters) fitObserve(ms float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fitDurations) < latencyWindow {
		c.fitDurations = append(c.fitDurations, ms)
	} else {
		c.fitDurations[c.fitNext] = ms
		c.fitNext = (c.fitNext + 1) % latencyWindow
	}
}

// fitP50 is the median recent fit-execution duration (ms); 0 when no
// fit has completed yet.
func (c *counters) fitP50() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stats.Quantile(c.fitDurations, 0.50)
}

// latencyP50 is the median recent request latency (ms) on an endpoint;
// 0 when the endpoint has no samples.
func (c *counters) latencyP50(endpoint string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.endpoints[endpoint]
	if ep == nil {
		return 0
	}
	return stats.Quantile(ep.latencies, 0.50)
}

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
	CoalescedHits uint64                   `json:"coalesced_hits"`
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
	// outside the cache_hits/coalesced_hits/cache_misses partition: a
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
		CoalescedHits: c.coalescedHits,
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
			P50MS:    stats.Quantile(ep.latencies, 0.50),
			P90MS:    stats.Quantile(ep.latencies, 0.90),
			P99MS:    stats.Quantile(ep.latencies, 0.99),
		}
	}
	for name, n := range c.schemes {
		s.Schemes[name] = n
	}
	return s
}
