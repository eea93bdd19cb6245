package scenario

import (
	"fmt"
	"sort"
)

// Metrics is what one scenario run measured. The latency and rate fields
// cover the steady window only; the prediction-accounting fields cover
// the whole run, warmup included, because /statz cannot be windowed.
type Metrics struct {
	// Requests/Errors count steady-window completions; ErrorRate is
	// Errors/Requests.
	Requests  int
	Errors    int
	ErrorRate float64
	// AchievedQPS is successful steady completions over the steady
	// wall-clock. The schedule is seeded, so on a clean run this is the
	// offered rate, not a finding.
	AchievedQPS float64
	// Predictions counts the predictions carried by successful steady
	// requests: 1 per single predict, the batch size per batched predict.
	Predictions   int
	PredictionQPS float64
	// Latency quantiles over steady-window requests, milliseconds.
	P50MS float64
	P90MS float64
	P99MS float64
	// Answered is the predictions answered 2xx over the whole run, and
	// Failed the operations of any kind that were not (a batch reporting
	// an itemized error counts here, with none of its items answered).
	Answered int
	Failed   int
	// CacheHits, CoalescedHits and CacheMisses are the three /statz
	// prediction buckets summed over the nodes at the end of the run. A
	// node puts every answered prediction in exactly one of them, so on a
	// run with Failed == 0 they sum to Answered.
	CacheHits     uint64
	CoalescedHits uint64
	CacheMisses   uint64
	// MaxRSSBytes is the largest per-node resident set observed.
	MaxRSSBytes int64
}

// CacheHitRate is the cluster-wide share of predictions that did not
// compute: served from the cache or shared an in-flight computation.
func (m *Metrics) CacheHitRate() float64 {
	total := m.CacheHits + m.CoalescedHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits+m.CoalescedHits) / float64(total)
}

// String is the one-line summary scenariobench and TestScenario print.
func (m *Metrics) String() string {
	return fmt.Sprintf("%d requests (%d predictions), %d errors, %.1f req/s / %.1f predictions/s, "+
		"p50 %.1fms p99 %.1fms, hit rate %.2f (%d hits, %d shared, %d computed; %d answered, %d failed), max rss %d MiB",
		m.Requests, m.Predictions, m.Errors, m.AchievedQPS, m.PredictionQPS,
		m.P50MS, m.P99MS, m.CacheHitRate(), m.CacheHits, m.CoalescedHits, m.CacheMisses,
		m.Answered, m.Failed, m.MaxRSSBytes>>20)
}

// CheckSLO returns one violation string per SLO the measured run broke.
func CheckSLO(m *Metrics, slo SLO) []string {
	var v []string
	if m.P50MS > slo.MaxP50MS {
		v = append(v, fmt.Sprintf("p50 %.1fms > SLO %.1fms", m.P50MS, slo.MaxP50MS))
	}
	if m.P99MS > slo.MaxP99MS {
		v = append(v, fmt.Sprintf("p99 %.1fms > SLO %.1fms", m.P99MS, slo.MaxP99MS))
	}
	if m.ErrorRate > slo.MaxErrorRate {
		v = append(v, fmt.Sprintf("error rate %.4f > SLO %.4f", m.ErrorRate, slo.MaxErrorRate))
	}
	if m.MaxRSSBytes > slo.MaxRSSBytes {
		v = append(v, fmt.Sprintf("max RSS %d > SLO %d bytes", m.MaxRSSBytes, slo.MaxRSSBytes))
	}
	sort.Strings(v)
	return v
}
