// Package pressio is a minimal stand-in so the broken tree type-checks:
// the analyzers key on the internal/pressio path suffix and on the
// constant values, not on the real repro module.
package pressio

// Options mirrors the real option map shape.
type Options map[string]any

// Set stores one option.
func (o Options) Set(k string, v any) { o[k] = v }

// Invalidation classes, value-identical to the real package (the
// analyzers fold constants to their string values).
const (
	InvalidateErrorDependent   = "predictors:error_dependent"
	InvalidateErrorAgnostic    = "predictors:error_agnostic"
	InvalidateRuntime          = "predictors:runtime"
	InvalidateNondeterministic = "predictors:nondeterministic"
	InvalidateTraining         = "predictors:training"
)

// Metric is the metric plugin surface.
type Metric interface {
	Name() string
	Invalidates() []string
}

// RegisterMetric records a metric factory.
func RegisterMetric(name string, factory func() Metric) {}
