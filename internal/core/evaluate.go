package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/opthash"
	"repro/internal/pressio"
)

// Evaluator is the Figure-4 evaluate step for callers that see the same
// buffers again and again (predictd over a resident dataset cell, a
// bench sweep, a Session): it honours the invalidation classes, so a
// metric whose StageOf is StageErrorAgnostic runs once per (buffer
// version, own options) and an error-bound sweep pays only
// error-dependent and runtime metrics.
//
// The memoised Results live in the buffer's derived-value slot
// (pressio.Data.Derived), not here: they are collected with the buffer
// and dropped when it mutates. An Evaluator holds only what outlives a
// buffer — the invalidation epoch every stored result is stamped with,
// and hit/miss counts. The zero value is ready to use and safe for
// concurrent use.
type Evaluator struct {
	epoch  atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
}

// featureKey names one memoised metric result in a buffer's slot: the
// metric and a hash of its own Options() after SetOptions (so a changed
// entropy:bins misses while a changed pressio:abs, which no
// error-agnostic metric reports, does not).
type featureKey struct {
	metric string
	opts   [32]byte
}

// memoValue is what the slot holds under a featureKey. The epoch is in
// the value, not the key, so a store after an invalidation replaces the
// stale entry instead of pushing the oldest one out of the bounded slot.
type memoValue struct {
	epoch   uint64
	results pressio.Options
}

// Invalidate applies a predictors:invalidate declaration: when the keys
// make error-agnostic metrics stale, every result memoised so far stops
// being served (the epoch moves on; a stale entry is overwritten by the
// next evaluation of its buffer). It reports whether they did. An
// error-agnostic metric lists only its class label — anything else would
// make StageOf classify it otherwise — so the class label stands in for
// all of them.
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

// MetricSet is what a plan needs of a Scheme: the metric plugins to run
// and the result keys of the feature vector (none: union of results only).
type MetricSet interface {
	Metrics() []string
	Features() []string
}

// planMetric is one configured metric of a plan. Error-agnostic ones are
// memoised under key.
type planMetric struct {
	name  string
	m     pressio.Metric
	stage Stage
	key   featureKey
}

// FeaturePlan is a scheme's metric plugins instantiated and configured
// for one (compressor, options) pair, with their memo keys resolved —
// the per-envelope part of evaluation, so a batch pays it once and each
// item pays only Evaluate; nothing else in the tree instantiates, runs or
// times a scheme's metrics. The plugins carry per-evaluation state: a
// plan serves one goroutine at a time. It keeps the pair it was made for
// (opts is the caller's map, not a copy) so ObserveCell runs the
// compressor under exactly what the metrics saw.
type FeaturePlan struct {
	ev         *Evaluator
	compressor string
	opts       pressio.Options
	metrics    []planMetric
	features   []string
	// sets[i] is metrics[i]'s results at the last evaluation, memoised or
	// computed; a feature is read from the last set holding its key
	sets []pressio.Options
	// dependent is the one feature the last Evaluate read from a metric
	// that is not error-agnostic, or -1 (none, or several)
	dependent int
}

// Plan resolves the set's metrics for a compressor and option set.
// Metrics that model or trial one particular compressor expose a
// "<name>:compressor" option (tao:compressor, khan:compressor); the plan
// points each at the compressor being predicted for.
func (e *Evaluator) Plan(set MetricSet, compressor string, opts pressio.Options) (*FeaturePlan, error) {
	names := set.Metrics()
	p := &FeaturePlan{
		ev:         e,
		compressor: compressor,
		opts:       opts,
		metrics:    make([]planMetric, len(names)),
		features:   set.Features(),
		sets:       make([]pressio.Options, len(names)),
		dependent:  -1,
	}
	merged := opts.Clone()
	for i, name := range names {
		m, err := pressio.GetMetric(name)
		if err != nil {
			return nil, err
		}
		for k := range m.Options() {
			if strings.HasSuffix(k, ":compressor") {
				merged.Set(k, compressor)
			}
		}
		p.metrics[i] = planMetric{name: name, m: m}
	}
	for i := range names {
		pm := &p.metrics[i]
		if err := pm.m.SetOptions(merged); err != nil {
			return nil, fmt.Errorf("metric %s: %w", pm.name, err)
		}
		if pm.stage = StageOf(pm.m); pm.stage == StageErrorAgnostic {
			pm.key = featureKey{metric: pm.name, opts: opthash.Hash(pm.m.Options())}
		}
	}
	return p, nil
}

// run executes the plan's metrics over one buffer, leaving each
// metric's results in p.sets and, when rec is not nil, recording in it
// the metrics that ran and their wall time. Error-agnostic results come
// from the buffer's slot when an earlier evaluation (under any error
// bound) left them there at this epoch; they are the Options a fresh
// BeginCompress returns, so results are bit-identical with and without
// the memo, and a hit reads no clock. Two goroutines evaluating an unseen
// buffer at once may both compute; the stores are idempotent. ctx is
// checked between metrics.
func (p *FeaturePlan) run(ctx context.Context, data *pressio.Data, rec *Evaluation) error {
	clear(p.sets)
	epoch := p.ev.epoch.Load()
	for i := range p.metrics {
		if err := ctx.Err(); err != nil {
			return err
		}
		pm := &p.metrics[i]
		memo := pm.stage == StageErrorAgnostic
		if memo {
			if v, ok := data.Derived(pm.key).(memoValue); ok && v.epoch == epoch {
				p.ev.hits.Add(1)
				p.sets[i] = v.results
				continue
			}
			p.ev.misses.Add(1)
		}
		start := time.Now()
		pm.m.BeginCompress(data)
		if rec != nil {
			ms := time.Since(start).Seconds() * 1e3
			rec.Recomputed = append(rec.Recomputed, pm.name)
			rec.MetricMS[pm.name] = ms
			if memo {
				rec.ErrorAgnosticMS += ms
			} else {
				rec.ErrorDependentMS += ms
			}
		}
		r := pm.m.Results()
		if memo {
			data.StoreDerived(pm.key, memoValue{epoch, r})
		}
		p.sets[i] = r
	}
	return nil
}

// union is every metric's results in one map, a later metric's value
// replacing an earlier one's under the same key.
func (p *FeaturePlan) union() pressio.Options {
	n := 0
	for _, r := range p.sets {
		n += len(r)
	}
	u := make(pressio.Options, n)
	for _, r := range p.sets {
		u.Merge(r)
	}
	return u
}

// Evaluate runs the plan over one buffer and extracts the feature
// vector — the serving path, which wants nothing else. Each feature is
// read from the last metric, in plan order, whose results hold its key:
// the value the union of the results holds, without building it.
func (p *FeaturePlan) Evaluate(ctx context.Context, data *pressio.Data) ([]float64, error) {
	p.dependent = -1
	if err := p.run(ctx, data, nil); err != nil {
		return nil, err
	}
	out := make([]float64, len(p.features))
	dep, dependents := -1, 0
	for f, k := range p.features {
		i := len(p.sets) - 1
		for ; i >= 0; i-- {
			if _, ok := p.sets[i][k]; ok {
				break
			}
		}
		v, ok := 0.0, false
		if i >= 0 {
			v, ok = p.sets[i].GetFloat(k)
		}
		if !ok {
			return ExtractFeatures(p.union(), p.features) // its error names k
		}
		out[f] = v
		if p.metrics[i].stage != StageErrorAgnostic {
			dep, dependents = f, dependents+1
		}
	}
	if dependents == 1 {
		p.dependent = dep
	}
	return out, nil
}

// DependentFeature reports the index of the one feature the last
// Evaluate read from a metric that is not error-agnostic (StageOf): over
// one buffer at other error bounds, the features differ in that one
// alone. False when no feature or several did, and after a failed
// Evaluate.
func (p *FeaturePlan) DependentFeature() (j int, ok bool) {
	return p.dependent, p.dependent >= 0
}

// EvaluateDetailed is Evaluate reporting what it did: the union of
// results and the metrics that ran (a memo hit is not one) with their
// wall time and per-stage sums.
func (p *FeaturePlan) EvaluateDetailed(ctx context.Context, data *pressio.Data) (*Evaluation, error) {
	ev := &Evaluation{MetricMS: map[string]float64{}}
	if err := p.run(ctx, data, ev); err != nil {
		return nil, err
	}
	ev.Results = p.union()
	var err error
	ev.Features, err = ExtractFeatures(ev.Results, p.features)
	return ev, err
}
