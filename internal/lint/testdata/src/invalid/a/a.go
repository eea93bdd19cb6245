// Package a exercises invalidatedecl: every RegisterMetric call must
// resolve to a type whose Invalidates lists at least one invalidation
// class.
package a

import "repro/internal/pressio"

func init() {
	pressio.RegisterMetric("good", func() pressio.Metric { return &Good{} })
	pressio.RegisterMetric("helper", func() pressio.Metric { return &Helper{} })
	pressio.RegisterMetric("shared", func() pressio.Metric { return &Shared{} })
	pressio.RegisterMetric("missing", func() pressio.Metric { return &Missing{} })   // want `Invalidates lists no invalidation class`
	pressio.RegisterMetric("keysonly", func() pressio.Metric { return &KeysOnly{} }) // want `Invalidates lists no invalidation class`
	//lint:ignore pressiovet/invalidatedecl fixture for the documented escape hatch
	pressio.RegisterMetric("excused", func() pressio.Metric { return &Missing{} })
}

// Good declares a class directly.
type Good struct{}

func (*Good) Name() string { return "good" }

// Invalidates declares error_dependent plus an option key.
func (*Good) Invalidates() []string {
	return []string{pressio.OptAbs, pressio.InvalidateErrorDependent}
}

// Helper declares its class through a same-package helper.
type Helper struct{}

func (*Helper) Name() string { return "helper" }

// Invalidates goes through classes().
func (*Helper) Invalidates() []string { return classes(pressio.InvalidateErrorAgnostic) }

func classes(keys ...string) []string { return keys }

// Shared returns a same-package variable, the repo's dominant idiom; the
// variable's class is one more variable away.
type Shared struct{}

func (*Shared) Name() string { return "shared" }

// Invalidates returns the shared list.
func (*Shared) Invalidates() []string { return sharedClass }

var (
	agnostic    = pressio.InvalidateErrorAgnostic
	sharedClass = []string{agnostic}
)

// Missing declares an empty list.
type Missing struct{}

func (*Missing) Name() string { return "missing" }

// Invalidates lists nothing.
func (*Missing) Invalidates() []string { return nil }

// KeysOnly lists option keys but pins no invalidation class, so the
// eviction machinery cannot classify it.
type KeysOnly struct{}

func (*KeysOnly) Name() string { return "keysonly" }

// Invalidates lists only an option key.
func (*KeysOnly) Invalidates() []string { return keysOnly }

var keysOnly = []string{pressio.OptAbs}
