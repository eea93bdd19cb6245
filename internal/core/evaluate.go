package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/opthash"
	"repro/internal/pressio"
)

// Evaluator is the Figure-4 evaluate step for callers that see the same
// buffers again and again (predictd over a resident dataset cell): it
// honours the invalidation classes, so a metric whose StageOf is
// StageErrorAgnostic runs once per (buffer version, own options) and an
// error-bound sweep pays only error-dependent and runtime metrics.
//
// The memoised Results live in the buffer's derived-value slot
// (pressio.Data.Derived), not here: they are collected with the buffer
// and dropped when it mutates. An Evaluator holds only what outlives a
// buffer — the invalidation epoch every stored result is keyed by, and
// hit/miss counts. The zero value is ready to use and safe for
// concurrent use.
type Evaluator struct {
	epoch  atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// featureKey names one memoised metric result in a buffer's slot: the
// metric, a hash of its own Options() after SetOptions (so a changed
// entropy:bins misses while a changed pressio:abs, which no
// error-agnostic metric reports, does not), and the epoch.
type featureKey struct {
	metric string
	opts   [32]byte
	epoch  uint64
}

// Invalidate applies a predictors:invalidate declaration: when the keys
// make error-agnostic metrics stale, every result memoised so far stops
// being served (the epoch moves on; stale entries die with their
// buffers). It reports whether they did. An error-agnostic metric lists
// only its class label — anything else would make StageOf classify it
// otherwise — so the class label stands in for all of them.
func (e *Evaluator) Invalidate(keys []string) bool {
	if !IsStale([]string{pressio.InvalidateErrorAgnostic}, keys) {
		return false
	}
	e.epoch.Add(1)
	return true
}

// MemoStats returns how many error-agnostic metric evaluations were
// served from a buffer's slot and how many ran the plugin.
func (e *Evaluator) MemoStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// planMetric is one configured metric of a plan; memo marks the
// error-agnostic ones, whose results are looked up under key.
type planMetric struct {
	m    pressio.Metric
	memo bool
	key  featureKey
}

// FeaturePlan is a scheme's metric plugins instantiated and configured
// for one (compressor, options) pair, with their memo keys resolved —
// the per-envelope part of evaluation, so a batch pays it once and each
// item pays only Evaluate. The plugins carry per-evaluation state: a
// plan serves one goroutine at a time.
type FeaturePlan struct {
	ev       *Evaluator
	metrics  []planMetric
	features []string
	results  pressio.Options
}

// Plan resolves the scheme's metrics for a compressor and option set.
// Metrics that model or trial one particular compressor expose a
// "<name>:compressor" option (tao:compressor, khan:compressor); the plan
// points each at the compressor being predicted for.
func (e *Evaluator) Plan(scheme Scheme, compressor string, opts pressio.Options) (*FeaturePlan, error) {
	names := scheme.Metrics()
	p := &FeaturePlan{
		ev:       e,
		metrics:  make([]planMetric, 0, len(names)),
		features: scheme.Features(),
		results:  pressio.Options{},
	}
	merged := opts.Clone()
	for _, name := range names {
		m, err := pressio.GetMetric(name)
		if err != nil {
			return nil, err
		}
		for k := range m.Options() {
			if strings.HasSuffix(k, ":compressor") {
				merged.Set(k, compressor)
			}
		}
		p.metrics = append(p.metrics, planMetric{m: m})
	}
	epoch := e.epoch.Load()
	for i := range p.metrics {
		pm := &p.metrics[i]
		if err := pm.m.SetOptions(merged); err != nil {
			return nil, fmt.Errorf("metric %s: %w", pm.m.Name(), err)
		}
		if StageOf(pm.m) == StageErrorAgnostic {
			pm.memo = true
			pm.key = featureKey{metric: pm.m.Name(), opts: opthash.Hash(pm.m.Options()), epoch: epoch}
		}
	}
	return p, nil
}

// Evaluate runs the plan's metrics over one buffer and extracts the
// scheme's feature vector. Error-agnostic results come from the buffer's
// slot when an earlier evaluation (under any error bound) left them
// there; they are the same Options a fresh BeginCompress returns, so
// the vector is bit-identical with and without the memo. Two goroutines
// evaluating an unseen buffer at once may both compute; the stores are
// idempotent. ctx is checked between metrics so a deadline can cut a
// multi-metric evaluation short.
func (p *FeaturePlan) Evaluate(ctx context.Context, data *pressio.Data) ([]float64, error) {
	clear(p.results)
	for i := range p.metrics {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pm := &p.metrics[i]
		if pm.memo {
			if r, ok := data.Derived(pm.key).(pressio.Options); ok {
				p.ev.hits.Add(1)
				p.results.Merge(r)
				continue
			}
			p.ev.misses.Add(1)
		}
		pm.m.BeginCompress(data)
		r := pm.m.Results()
		if pm.memo {
			data.StoreDerived(pm.key, r)
		}
		p.results.Merge(r)
	}
	return ExtractFeatures(p.results, p.features)
}

// EvaluateFeatures is Plan followed by Evaluate, for callers with one
// buffer per option set (a single predict, a training cell).
func (e *Evaluator) EvaluateFeatures(ctx context.Context, scheme Scheme, compressor string, opts pressio.Options, data *pressio.Data) ([]float64, error) {
	p, err := e.Plan(scheme, compressor, opts)
	if err != nil {
		return nil, err
	}
	return p.Evaluate(ctx, data)
}
