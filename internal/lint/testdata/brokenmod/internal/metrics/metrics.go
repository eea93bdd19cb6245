// Package metrics violates invalidatedecl: a registered metric whose
// Invalidates lists no invalidation class.
package metrics

import "brokenvet/internal/pressio"

type silent struct{}

func (s *silent) Name() string { return "silent" }

// Invalidates exists but lists nothing.
func (s *silent) Invalidates() []string { return nil }

func init() {
	pressio.RegisterMetric("silent", func() pressio.Metric { return &silent{} })
}
