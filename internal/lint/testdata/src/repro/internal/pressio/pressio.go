// Package pressio is a minimal fixture stub of repro/internal/pressio:
// just enough surface for the analyzers' type- and constant-matching,
// which resolves the real package and this stub identically (both paths
// end in "internal/pressio", and the invalidation keys are constants).
package pressio

// Invalidation classes, mirroring the real package.
const (
	InvalidateErrorDependent   = "predictors:error_dependent"
	InvalidateErrorAgnostic    = "predictors:error_agnostic"
	InvalidateRuntime          = "predictors:runtime"
	InvalidateNondeterministic = "predictors:nondeterministic"
	InvalidateTraining         = "predictors:training"
	OptAbs                     = "pressio:abs"
)

// Options mirrors the real option-structure type.
type Options map[string]any

// Set stores a value.
func (o Options) Set(key string, v any) { o[key] = v }

// Metric is the fixture plugin interface: like the real one, it requires
// the predictors:invalidate list.
type Metric interface {
	Name() string
	Invalidates() []string
}

// RegisterMetric mirrors the real registration entry point.
func RegisterMetric(name string, factory func() Metric) {}
