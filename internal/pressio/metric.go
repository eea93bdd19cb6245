package pressio

import (
	"fmt"
	"time"
)

// Invalidation classes (paper §4.2). A metric plugin's Invalidates — the
// paper's predictors:invalidate list — names the compressor options and/or
// these classes whose change invalidates its cached results.
const (
	// InvalidateErrorDependent marks a metric sensitive to any
	// compressor setting that affects the permitted error.
	InvalidateErrorDependent = "predictors:error_dependent"

	// InvalidateErrorAgnostic marks a metric that no error setting can
	// affect; it depends only on the input data.
	InvalidateErrorAgnostic = "predictors:error_agnostic"

	// InvalidateRuntime marks a metric dependent on runtime factors
	// (thread counts, placement) rather than on data or error settings.
	InvalidateRuntime = "predictors:runtime"

	// InvalidateNondeterministic marks a metric whose value varies
	// between runs (timings, randomized algorithms) and which may need
	// replication to observe accurately.
	InvalidateNondeterministic = "predictors:nondeterministic"

	// InvalidateTraining is used only by users and the framework to
	// request training-only metrics; metrics never list it themselves.
	InvalidateTraining = "predictors:training"
)

// Metric is the plugin interface for observation modules, mirroring
// libpressio_metrics_plugin (paper Fig. 3). The lifecycle hooks are invoked
// by a MetricsGroup around compressor calls; Results returns the
// accumulated observations.
//
// Error-agnostic metrics typically implement only BeginCompress (observing
// the uncompressed input); error-dependent metrics also implement
// EndDecompress to observe the decompressed output.
type Metric interface {
	// Name returns the registry name of the plugin, e.g. "error_stat".
	Name() string

	// BeginCompress observes the uncompressed input before compression.
	BeginCompress(in *Data)

	// EndCompress observes the input and compressed output (err is the
	// compressor's error, nil on success).
	EndCompress(in, compressed *Data, err error)

	// BeginDecompress observes the compressed payload before decoding.
	BeginDecompress(compressed *Data)

	// EndDecompress observes the compressed payload and the decoded
	// output.
	EndDecompress(compressed, out *Data, err error)

	// Results returns the accumulated observations keyed by
	// "<metric>:<statistic>".
	Results() Options

	// SetOptions applies configuration; unknown keys are ignored.
	SetOptions(Options) error

	// Options returns the current configuration.
	Options() Options

	// Invalidates is the metric's predictors:invalidate list: the option
	// names and classes whose change makes its results stale. The slice
	// may be shared: callers must not modify it.
	Invalidates() []string
}

// FloatResulter is a Metric whose results are all float64 and that can
// read one without building its Results map — what an error-dependent
// metric a bound sweep runs at every bound implements, so that reading
// its feature costs no allocation.
type FloatResulter interface {
	// ResultFloat returns Results()[key] and whether Results holds key.
	ResultFloat(key string) (float64, bool)
}

// StaticMetadata is a Metric whose option keys are fixed whatever its
// options — every built-in metric but external — so that a plan reads
// them without building the Options map. The slice is shared: callers
// must not modify it.
type StaticMetadata interface {
	// OptionKeys returns the keys Options holds.
	OptionKeys() []string
}

// BaseMetric provides no-op hook implementations so metric plugins only
// override the hooks they need, as in the C++ API.
type BaseMetric struct{}

// BeginCompress implements Metric with a no-op.
func (BaseMetric) BeginCompress(*Data) {}

// EndCompress implements Metric with a no-op.
func (BaseMetric) EndCompress(_, _ *Data, _ error) {}

// BeginDecompress implements Metric with a no-op.
func (BaseMetric) BeginDecompress(*Data) {}

// EndDecompress implements Metric with a no-op.
func (BaseMetric) EndDecompress(_, _ *Data, _ error) {}

// SetOptions implements Metric by accepting and ignoring all options.
func (BaseMetric) SetOptions(Options) error { return nil }

// Options implements Metric with an empty option set.
func (BaseMetric) Options() Options { return Options{} }

var metrics registry[Metric]

// RegisterMetric adds a metric factory to the global registry. It panics on
// duplicate names; registration happens in package init.
func RegisterMetric(name string, factory func() Metric) {
	metrics.register(name, factory)
}

// GetMetric instantiates a fresh metric by registry name.
func GetMetric(name string) (Metric, error) { return metrics.get(name) }

// MetricNames lists the registered metric plugins, sorted.
func MetricNames() []string { return metrics.names() }

// MetricsGroup couples a compressor with a set of metric plugins and runs
// the lifecycle hooks around each compressor call — the "metrics evaluator"
// object obtained from a scheme in the paper's Fig. 4 sketch. It also
// records wall-clock timings for the compressor itself under
// "time:compress" and "time:decompress" (milliseconds).
type MetricsGroup struct {
	Compressor Compressor
	Metrics    []Metric

	results Options
}

// NewMetricsGroup builds a MetricsGroup over comp with metrics instantiated
// from the registry by name.
func NewMetricsGroup(comp Compressor, metricNames ...string) (*MetricsGroup, error) {
	g := &MetricsGroup{Compressor: comp, results: Options{}}
	for _, name := range metricNames {
		m, err := GetMetric(name)
		if err != nil {
			return nil, err
		}
		g.Metrics = append(g.Metrics, m)
	}
	return g, nil
}

// SetOptions broadcasts options to the compressor and every metric.
func (g *MetricsGroup) SetOptions(opts Options) error {
	if g.Compressor != nil {
		if err := g.Compressor.SetOptions(opts); err != nil {
			return err
		}
	}
	for _, m := range g.Metrics {
		if err := m.SetOptions(opts); err != nil {
			return fmt.Errorf("metric %s: %w", m.Name(), err)
		}
	}
	return nil
}

// Compress runs the compressor with metric hooks around it.
func (g *MetricsGroup) Compress(in *Data) (*Data, error) {
	for _, m := range g.Metrics {
		m.BeginCompress(in)
	}
	var (
		compressed *Data
		err        error
	)
	start := time.Now()
	if g.Compressor != nil {
		compressed, err = g.Compressor.Compress(in)
	}
	g.results.Set("time:compress", time.Since(start).Seconds()*1e3)
	for _, m := range g.Metrics {
		m.EndCompress(in, compressed, err)
	}
	return compressed, err
}

// Decompress runs the decompressor with metric hooks around it.
func (g *MetricsGroup) Decompress(compressed *Data, out *Data) error {
	for _, m := range g.Metrics {
		m.BeginDecompress(compressed)
	}
	var err error
	start := time.Now()
	if g.Compressor != nil {
		err = g.Compressor.Decompress(compressed, out)
	}
	g.results.Set("time:decompress", time.Since(start).Seconds()*1e3)
	for _, m := range g.Metrics {
		m.EndDecompress(compressed, out, err)
	}
	return err
}

// Results merges the results of every metric plus the group's own timings.
func (g *MetricsGroup) Results() Options {
	out := g.results.Clone()
	for _, m := range g.Metrics {
		out.Merge(m.Results())
	}
	return out
}
