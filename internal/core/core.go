// Package core is the Go implementation of libpressio-predict, the
// paper's primary contribution: a lightweight, extendable framework for
// describing, implementing, and using methods that predict compression
// performance without (fully) running compressors.
//
// Three plugin kinds cooperate (paper §4.2):
//
//   - metric plugins (package metrics and scheme-specific ones) compute
//     observations and carry predictors:invalidate metadata describing
//     when their cached values become stale;
//   - Predictor plugins expose fit/predict with serializable state,
//     modelled on SciKit-Learn's BaseEstimator;
//   - Scheme plugins tie the two together: which metrics a method needs,
//     which result keys form its feature vector, what it predicts, and
//     which compressors it supports.
//
// A Session drives the Figure-4 inference flow: get a scheme, get its
// predictor for a compressor, declare what changed (invalidations),
// recompute only the stale metrics, and predict.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/pressio"
)

// Predictor is the predict_plugin interface: fit on observed
// (features, target) rows, predict from one feature vector, and
// save/restore trained state.
type Predictor interface {
	// Name identifies the predictor implementation.
	Name() string

	// Trains reports whether Fit is required before Predict.
	Trains() bool

	// Fit trains on rows of features and targets. Predictors with
	// Trains() == false accept and ignore any input.
	Fit(features [][]float64, targets []float64) error

	// Predict estimates the target for one feature vector.
	Predict(features []float64) (float64, error)

	// Save serializes the trained state ("predictors:state").
	Save() ([]byte, error)

	// Load restores state produced by Save.
	Load([]byte) error
}

// Info is a scheme's Table-1 row: the taxonomy the paper uses to compare
// estimation methods.
type Info struct {
	// Method is the citation label, e.g. "Tao [15]".
	Method string
	// Training reports whether the scheme fits parameters to data: its
	// predictors train (Predictor.Trains), so a model is fitted before
	// they predict.
	Training bool
	// Sampling reports whether the scheme reads only a sample of the data.
	Sampling bool
	// BlackBox is "yes", "no", or "partial" (the ~ of Table 1).
	BlackBox string
	// Goal is "fast" or "accurate".
	Goal string
	// Metrics names what is predicted, e.g. "CR" or "CR, Bandwidth".
	Metrics string
	// Approach is the method family: trial-based, regression,
	// calculation, machine learning, deep learning.
	Approach string
	// Features notes special capabilities: "bounded", "counterfactuals".
	Features string
}

// Scheme is the scheme_plugin interface: everything a user needs to apply
// a prediction method without knowing its internals.
type Scheme interface {
	// Name is the registry key, e.g. "rahman2023".
	Name() string

	// Info returns the scheme's taxonomy row.
	Info() Info

	// Supports reports whether the scheme can predict for the named
	// compressor in its current configuration.
	Supports(compressor string) bool

	// Metrics lists the metric plugins whose results the scheme consumes.
	Metrics() []string

	// Features lists the result keys, in order, forming the feature
	// vector passed to the predictor.
	Features() []string

	// Target is the result key the scheme predicts, e.g.
	// "size:compression_ratio".
	Target() string

	// NewPredictor builds the predictor configured for a compressor.
	NewPredictor(compressor string) (Predictor, error)
}

var schemes struct {
	mu        sync.RWMutex
	factories map[string]func() Scheme
	order     []string
}

// RegisterScheme adds a scheme factory to the registry; it panics on
// duplicates (registration happens in package init).
func RegisterScheme(name string, factory func() Scheme) {
	schemes.mu.Lock()
	defer schemes.mu.Unlock()
	if schemes.factories == nil {
		schemes.factories = make(map[string]func() Scheme)
	}
	if _, dup := schemes.factories[name]; dup {
		panic(fmt.Sprintf("core: duplicate scheme %q", name))
	}
	schemes.factories[name] = factory
	schemes.order = append(schemes.order, name)
}

// GetScheme instantiates a scheme by name.
func GetScheme(name string) (Scheme, error) {
	schemes.mu.RLock()
	factory, ok := schemes.factories[name]
	schemes.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no scheme %q (have %v)", name, SchemeNames())
	}
	return factory(), nil
}

// SchemeNames lists registered schemes, sorted.
func SchemeNames() []string {
	schemes.mu.RLock()
	defer schemes.mu.RUnlock()
	out := append([]string(nil), schemes.order...)
	sort.Strings(out)
	return out
}

// Stage classifies a metric by its invalidation metadata for the paper's
// per-stage timing breakdown (§5).
type Stage int

const (
	// StageErrorAgnostic metrics depend only on the data.
	StageErrorAgnostic Stage = iota
	// StageErrorDependent metrics also depend on error-bound settings.
	StageErrorDependent
	// StageRuntime metrics depend on runtime factors (timings, sizes
	// from actually running the compressor).
	StageRuntime
)

// String returns the Table-2 column name of the stage.
func (s Stage) String() string {
	switch s {
	case StageErrorAgnostic:
		return "error-agnostic"
	case StageErrorDependent:
		return "error-dependent"
	case StageRuntime:
		return "runtime"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// StageOf classifies a metric from its predictors:invalidate list:
// runtime beats error-dependent beats error-agnostic when several classes
// are listed (a runtime metric is also invalid under error changes).
func StageOf(m pressio.Metric) Stage {
	stage := StageErrorAgnostic
	for _, k := range m.Invalidates() {
		switch k {
		case pressio.InvalidateRuntime, pressio.InvalidateNondeterministic:
			return StageRuntime
		case pressio.InvalidateErrorAgnostic: // the stage it starts at
		default:
			// error_dependent, or a named compressor option: its change
			// affects results, which is the error-dependent contract
			stage = StageErrorDependent
		}
	}
	return stage
}

// IsStale reports whether a metric with the given predictors:invalidate
// list must be recomputed after the user invalidates the given keys.
//
// Matching is set intersection with one refinement from the paper: the
// generic class keys cover their specific options, so invalidating
// predictors:error_dependent also invalidates a metric that only lists
// pressio:abs (a specific error-affecting option), and invalidating a
// specific option a metric lists triggers it even when the user did not
// name the generic class.
func IsStale(metricInvalidate, invalidated []string) bool {
	// generic error invalidation covers specific error-affecting options
	// (anything that is not one of the class labels)
	genericErr := slices.Contains(invalidated, pressio.InvalidateErrorDependent)
	for _, k := range metricInvalidate {
		if slices.Contains(invalidated, k) || genericErr && !isClassKey(k) {
			return true
		}
	}
	return false
}

// SchemeStale reports whether invalidating the given option names or
// class keys makes any of a scheme's metrics stale — and therefore makes
// anything derived from those metrics (cached feature vectors, trained
// predictor state, served predictions) untrustworthy. The serving layer
// uses it to decide which registry entries and cached results a
// predictors:invalidate declaration must evict. InvalidateTraining is
// handled here too: training is an input of every trained artifact, so a
// training invalidation always reports stale for schemes that train.
func SchemeStale(scheme Scheme, keys []string) (bool, error) {
	if scheme.Info().Training && slices.Contains(keys, pressio.InvalidateTraining) {
		return true, nil
	}
	for _, name := range scheme.Metrics() {
		m, err := pressio.GetMetric(name)
		if err != nil {
			return false, err
		}
		if IsStale(m.Invalidates(), keys) {
			return true, nil
		}
	}
	return false, nil
}

func isClassKey(k string) bool {
	switch k {
	case pressio.InvalidateErrorAgnostic, pressio.InvalidateErrorDependent,
		pressio.InvalidateRuntime, pressio.InvalidateNondeterministic,
		pressio.InvalidateTraining:
		return true
	}
	return false
}

// Evaluation is the result of computing a scheme's metrics on a buffer,
// with the timing split the paper's Table 2 reports.
type Evaluation struct {
	// Features is the vector in scheme.Features() order.
	Features []float64
	// Results is the union of all metric results.
	Results pressio.Options
	// MetricMS is the wall-clock milliseconds of each metric this
	// evaluation executed; one answered from the buffer's memo has none.
	MetricMS map[string]float64
	// ErrorAgnosticMS / ErrorDependentMS sum MetricMS per stage (runtime
	// counts as error-dependent): 0 when none of the stage's metrics ran.
	ErrorAgnosticMS  float64
	ErrorDependentMS float64
	// Recomputed lists the metrics actually executed, in scheme order.
	Recomputed []string
}

// Session drives the Figure-4 flow for one (scheme, compressor) pair: it
// holds the pair, the merged options, the plan they resolve to and the
// last evaluation; what runs and what a buffer's memo answers is the
// Evaluator's business. A Session serves one goroutine at a time.
type Session struct {
	Scheme     Scheme
	Compressor pressio.Compressor
	Predictor  Predictor

	compressor string // registry name, which the plan configures metrics with
	opts       pressio.Options
	eval       Evaluator
	plan       *FeaturePlan

	// last was computed on lastData at lastVersion; dirty: declared stale since
	last        *Evaluation
	lastData    *pressio.Data
	lastVersion uint64
	dirty       bool
}

// NewSession instantiates the scheme, verifies compressor support, and
// builds the predictor and metric plugins.
func NewSession(schemeName, compressorName string) (*Session, error) {
	scheme, err := GetScheme(schemeName)
	if err != nil {
		return nil, err
	}
	if !scheme.Supports(compressorName) {
		return nil, fmt.Errorf("core: scheme %s does not support compressor %s", schemeName, compressorName)
	}
	comp, err := pressio.GetCompressor(compressorName)
	if err != nil {
		return nil, err
	}
	pred, err := scheme.NewPredictor(compressorName)
	if err != nil {
		return nil, err
	}
	s := &Session{
		Scheme:     scheme,
		Compressor: comp,
		Predictor:  pred,
		compressor: compressorName,
		opts:       pressio.Options{},
	}
	if s.plan, err = s.eval.Plan(scheme, compressorName, s.opts); err != nil {
		return nil, err
	}
	return s, nil
}

// SetOptions configures the compressor and every metric. It does NOT
// invalidate caches: callers declare what changed via Invalidate, exactly
// as in the paper's usage sketch.
func (s *Session) SetOptions(opts pressio.Options) error {
	s.opts.Merge(opts)
	if err := s.Compressor.SetOptions(opts); err != nil {
		return err
	}
	plan, err := s.eval.Plan(s.Scheme, s.compressor, s.opts)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.plan = plan
	return nil
}

// Invalidate declares that the given option names or special class keys
// changed and returns the metrics that makes stale; if any, the next
// Evaluate runs the plan instead of returning the last evaluation.
func (s *Session) Invalidate(keys ...string) []string {
	var out []string
	for _, pm := range s.plan.metrics {
		if IsStale(pm.m.Invalidates(), keys) {
			out = append(out, pm.name)
		}
	}
	s.dirty = s.dirty || len(out) > 0
	s.eval.Invalidate(keys)
	return out
}

// InvalidateAll declares every metric stale, results memoised on buffers
// included. A new or mutated buffer does not need it: Evaluate notices.
func (s *Session) InvalidateAll() {
	s.dirty = true
	s.eval.Invalidate([]string{pressio.InvalidateErrorAgnostic})
}

// Evaluate returns the scheme's metric results and feature vector for
// data. With nothing declared stale and data the same buffer at the same
// Version as last time, that is the last evaluation (nothing recomputed;
// Features and Results shared with it, read-only). Otherwise the plan
// runs: error-agnostic metrics only if the buffer lacks their results.
func (s *Session) Evaluate(data *pressio.Data) (*Evaluation, error) {
	if s.last != nil && !s.dirty && data == s.lastData && data.Version() == s.lastVersion {
		return &Evaluation{Features: s.last.Features, Results: s.last.Results}, nil
	}
	ev, err := s.plan.EvaluateDetailed(context.TODO(), data) // the kept signature has no ctx
	if err != nil {
		return nil, err
	}
	s.last, s.lastData, s.lastVersion, s.dirty = ev, data, data.Version(), false
	return ev, nil
}

// Predict runs Evaluate and feeds the features to the predictor — the
// whole Figure-4 inference path in one call.
func (s *Session) Predict(data *pressio.Data) (float64, *Evaluation, error) {
	ev, err := s.Evaluate(data)
	if err != nil {
		return 0, nil, err
	}
	v, err := s.Predictor.Predict(ev.Features)
	if err != nil {
		return 0, ev, err
	}
	return v, ev, nil
}

// ExtractFeatures pulls the named keys out of a results structure in
// order — the extract(...) helper of the paper's Figure 4.
func ExtractFeatures(results pressio.Options, keys []string) ([]float64, error) {
	out := make([]float64, len(keys))
	for i, k := range keys {
		v, ok := results.GetFloat(k)
		if !ok {
			if iv, iok := results.GetInt(k); iok {
				v = float64(iv)
			} else {
				return nil, fmt.Errorf("core: results missing feature %q (have %v)", k, results.Keys())
			}
		}
		out[i] = v
	}
	return out, nil
}

// ObserveTarget runs the real compressor on data (with the given options)
// and returns the scheme target observation — the compression ratio —
// plus the compress/decompress wall-clock times in milliseconds. This is
// the "training" stage of Table 2: the expensive observation training-
// based schemes need once per training buffer.
func ObserveTarget(compressorName string, data *pressio.Data, opts pressio.Options) (cr, compressMS, decompressMS float64, err error) {
	comp, err := pressio.GetCompressor(compressorName)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := comp.SetOptions(opts); err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	compressed, err := comp.Compress(data)
	if err != nil {
		return 0, 0, 0, err
	}
	compressMS = time.Since(start).Seconds() * 1e3
	out := pressio.New(data.DType(), data.Dims()...)
	start = time.Now()
	if err := comp.Decompress(compressed, out); err != nil {
		return 0, 0, 0, err
	}
	decompressMS = time.Since(start).Seconds() * 1e3
	cr = float64(data.ByteSize()) / float64(compressed.ByteSize())
	return cr, compressMS, decompressMS, nil
}
