package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
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
	if !slices.Contains(keys, pressio.InvalidateErrorAgnostic) {
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
// memoised under key; float is the metric's typed read, when it has one.
type planMetric struct {
	name  string
	m     pressio.Metric
	stage Stage
	key   featureKey
	float pressio.FloatResulter
}

// vectorKey names a plan's error-agnostic feature vector in a buffer's
// slot: a hash of the plan's error-agnostic metrics — their positions
// in the plan and their memo keys — and of its feature names. Plans
// that agree on all of that read the same vector.
type vectorKey [32]byte

// featureVector is what the slot holds under a vectorKey: each feature
// as the plan's error-agnostic metrics give it at one epoch. Never
// mutated once stored.
type featureVector struct {
	epoch uint64
	feats []vectorFeature
}

// vectorFeature is one feature of a featureVector: by is 1 + the plan
// index of the last error-agnostic metric whose results hold its key (0:
// none), v the value there, when that is a number (ok).
type vectorFeature struct {
	v  float64
	by int
	ok bool
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
	// feats[f] is features[f] as the metrics evaluated so far give it
	feats []vectorFeature
	// agnostic counts the error-agnostic metrics, whose features a
	// buffer's slot keeps under vector
	agnostic int
	vector   vectorKey
	// dependent is the one feature the last evaluation read from a metric
	// that is not error-agnostic, or -1 (none, or several)
	dependent int
}

// emptyOptionsHash is the memo-key hash of a metric without options.
var emptyOptionsHash = opthash.Hash(nil)

// Plan resolves the set's metrics for a compressor and option set.
// Metrics that model or trial one particular compressor expose a
// "<name>:compressor" option (tao:compressor, khan:compressor); the plan
// points each at the compressor being predicted for. A metric with
// static option keys (pressio.StaticMetadata) is searched for that
// option without building its Options.
func (e *Evaluator) Plan(set MetricSet, compressor string, opts pressio.Options) (*FeaturePlan, error) {
	names := set.Metrics()
	p := &FeaturePlan{
		ev:         e,
		compressor: compressor,
		opts:       opts,
		metrics:    make([]planMetric, len(names)),
		features:   set.Features(),
		dependent:  -1,
	}
	p.feats = make([]vectorFeature, len(p.features))
	merged, cloned := opts, false
	for i, name := range names {
		m, err := pressio.GetMetric(name)
		if err != nil {
			return nil, err
		}
		for _, k := range optionKeys(m) {
			if strings.HasSuffix(k, ":compressor") {
				if !cloned {
					merged, cloned = opts.Clone(), true
				}
				merged.Set(k, compressor)
			}
		}
		p.metrics[i] = planMetric{name: name, m: m}
	}
	var buf [512]byte
	key := buf[:0]
	for i := range names {
		pm := &p.metrics[i]
		if err := pm.m.SetOptions(merged); err != nil {
			return nil, fmt.Errorf("metric %s: %w", pm.name, err)
		}
		pm.float, _ = pm.m.(pressio.FloatResulter)
		if pm.stage = StageOf(pm.m); pm.stage == StageErrorAgnostic {
			pm.key = featureKey{metric: pm.name, opts: emptyOptionsHash}
			if len(optionKeys(pm.m)) > 0 {
				pm.key.opts = opthash.Hash(pm.m.Options())
			}
			p.agnostic++
			key = binary.LittleEndian.AppendUint64(key, uint64(i))
			key = append(append(key, pm.key.metric...), 0)
			key = append(key, pm.key.opts[:]...)
		}
	}
	if p.agnostic > 0 {
		for _, f := range p.features {
			key = append(append(key, f...), 0)
		}
		p.vector = sha256.Sum256(key)
	}
	return p, nil
}

// optionKeys lists the keys of m's options.
func optionKeys(m pressio.Metric) []string {
	if sm, ok := m.(pressio.StaticMetadata); ok {
		return sm.OptionKeys()
	}
	return m.Options().Keys()
}

// evaluate is the one loop over the plan's metrics: it runs them over
// one buffer and writes the feature vector into dst's storage, grown
// when it is short. Each feature is read from the last metric, in plan
// order, whose results hold its key — the value the union of the
// results holds, without building it.
//
// An error-agnostic metric's results come from the buffer's slot when an
// earlier evaluation (under any error bound) left them there at this
// epoch; they are the Options a fresh BeginCompress returns, so results
// are bit-identical with and without the memo. Without a recorder, the
// plan's error-agnostic features are first looked up as one vector in
// the buffer's slot — one probe that counts as a memo hit per
// error-agnostic metric — and, when it is not there, built from their
// results and stored; a metric that is not error-agnostic is read
// through its typed read where it has one (pressio.FloatResulter).
// Two goroutines evaluating an unseen buffer at once may both compute;
// the stores are idempotent.
//
// A recorder (rec) gets the union of the results and the metrics that
// ran — a memo hit is not one — with their wall time; the clock is read
// only for it. A missing feature fails as ExtractFeatures over that
// union does: an evaluation without a recorder runs again with one, to
// name the union's keys. ctx is checked between metrics.
func (p *FeaturePlan) evaluate(ctx context.Context, data *pressio.Data, dst []float64, rec *Evaluation) ([]float64, error) {
	p.dependent = -1
	epoch := p.ev.epoch.Load()
	clear(p.feats)
	var vec, build *featureVector
	if rec == nil && p.agnostic > 0 {
		if v, ok := data.Derived(p.vector).(*featureVector); ok && v.epoch == epoch {
			p.ev.hits.Add(uint64(p.agnostic))
			vec = v
			copy(p.feats, v.feats)
		} else {
			build = &featureVector{epoch: epoch, feats: make([]vectorFeature, len(p.features))}
		}
	}
	var sets [16]pressio.Options
	results := sets[:0] // what a recorder's union is made of, in plan order
	var err error
	for i := range p.metrics {
		pm := &p.metrics[i]
		agnostic := pm.stage == StageErrorAgnostic
		if agnostic && vec != nil {
			continue
		}
		if err = ctx.Err(); err != nil {
			break
		}
		var r pressio.Options
		hit := false
		if agnostic {
			if v, ok := data.Derived(pm.key).(memoValue); ok && v.epoch == epoch {
				p.ev.hits.Add(1)
				r, hit = v.results, true
			} else {
				p.ev.misses.Add(1)
			}
		}
		typed := !agnostic && rec == nil && pm.float != nil
		if !hit {
			var start time.Time
			if rec != nil {
				start = time.Now()
			}
			pm.m.BeginCompress(data)
			if rec != nil {
				ms := time.Since(start).Seconds() * 1e3
				rec.Recomputed = append(rec.Recomputed, pm.name)
				rec.MetricMS[pm.name] = ms
				if agnostic {
					rec.ErrorAgnosticMS += ms
				} else {
					rec.ErrorDependentMS += ms
				}
			}
			if !typed {
				r = pm.m.Results()
			}
			if agnostic {
				data.StoreDerived(pm.key, memoValue{epoch, r})
			}
		}
		if rec != nil {
			results = append(results, r)
		}
		for f, k := range p.features {
			vf := vectorFeature{by: i + 1}
			held := false
			if typed {
				vf.v, held = pm.float.ResultFloat(k)
				vf.ok = held
			} else if _, held = r[k]; held {
				vf.v, vf.ok = r.GetFloat(k)
			}
			if !held {
				continue
			}
			if vf.by > p.feats[f].by {
				p.feats[f] = vf
			}
			if build != nil && agnostic {
				build.feats[f] = vf
			}
		}
	}
	if rec != nil { // sized once; a later metric's value replaces an earlier one's
		n := 0
		for _, r := range results {
			n += len(r)
		}
		rec.Results = make(pressio.Options, n)
		for _, r := range results {
			rec.Results.Merge(r)
		}
	}
	if err != nil {
		return nil, err
	}
	if build != nil {
		data.StoreDerived(p.vector, build)
	}
	if cap(dst) < len(p.features) {
		dst = make([]float64, len(p.features))
	}
	dst = dst[:len(p.features)]
	dep, dependents := -1, 0
	for f, vf := range p.feats {
		if !vf.ok {
			if rec == nil { // the error names the union's keys: record them
				return p.evaluate(ctx, data, dst, &Evaluation{MetricMS: map[string]float64{}})
			}
			_, err := ExtractFeatures(rec.Results, p.features)
			return nil, err
		}
		dst[f] = vf.v
		if p.metrics[vf.by-1].stage != StageErrorAgnostic {
			dep, dependents = f, dependents+1
		}
	}
	if dependents == 1 {
		p.dependent = dep
	}
	return dst, nil
}

// Evaluate runs the plan over one buffer and returns the feature vector
// — the serving path, which wants nothing else.
func (p *FeaturePlan) Evaluate(ctx context.Context, data *pressio.Data) ([]float64, error) {
	return p.evaluate(ctx, data, nil, nil)
}

// EvaluateInto is Evaluate writing the vector into dst's storage, grown
// when it is short, so that a caller evaluating buffer after buffer —
// a batch's items — allocates it once.
func (p *FeaturePlan) EvaluateInto(ctx context.Context, data *pressio.Data, dst []float64) ([]float64, error) {
	return p.evaluate(ctx, data, dst, nil)
}

// DependentFeature reports the index of the one feature the last
// evaluation read from a metric that is not error-agnostic (StageOf):
// over one buffer at other error bounds, the features differ in that one
// alone. False when no feature or several did, and after a failed
// evaluation.
func (p *FeaturePlan) DependentFeature() (j int, ok bool) {
	return p.dependent, p.dependent >= 0
}

// EvaluateDetailed is Evaluate reporting what it did: the union of
// results and the metrics that ran (a memo hit is not one) with their
// wall time and per-stage sums. After an error it holds what ran
// before it.
func (p *FeaturePlan) EvaluateDetailed(ctx context.Context, data *pressio.Data) (*Evaluation, error) {
	ev := &Evaluation{MetricMS: map[string]float64{}}
	var err error
	ev.Features, err = p.evaluate(ctx, data, nil, ev)
	return ev, err
}
