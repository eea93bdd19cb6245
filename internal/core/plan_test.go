package core

import (
	"context"
	"testing"

	"repro/internal/pressio"
)

// evalShadow is error-agnostic and reports a key core-eval-bound reports
// too, so which one a feature is read from depends on plan order.
type evalShadow struct{ pressio.BaseMetric }

func (*evalShadow) Name() string { return "core-eval-shadow" }
func (*evalShadow) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-eval-bound:abs", 7.0)
	return o
}
func (*evalShadow) Configuration() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.CfgInvalidate, []string{pressio.InvalidateErrorAgnostic})
	return o
}

func init() {
	pressio.RegisterMetric("core-eval-shadow", func() pressio.Metric { return &evalShadow{} })
}

type metricSet struct{ metrics, features []string }

func (s metricSet) Metrics() []string  { return s.metrics }
func (s metricSet) Features() []string { return s.features }

// TestEvaluateReadsTheLastMetricHoldingAKey: Evaluate, which builds no
// union of the results, reads each feature where EvaluateDetailed's union
// does — from the last metric in plan order that reports it — and
// reports the one feature a metric that is not error-agnostic supplied.
func TestEvaluateReadsTheLastMetricHoldingAKey(t *testing.T) {
	ctx := context.Background()
	data := pressio.FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	agn, bound := "core-eval-agnostic:sum", "core-eval-bound:abs"
	for _, c := range []struct {
		name  string
		set   metricSet
		want  []float64
		dep   int
		depOK bool
	}{
		{"one dependent", metricSet{[]string{"core-eval-agnostic", "core-eval-bound"}, []string{agn, bound}}, []float64{21, 0.5}, 1, true},
		{"bound after shadow", metricSet{[]string{"core-eval-shadow", "core-eval-agnostic", "core-eval-bound"}, []string{bound, agn}}, []float64{0.5, 21}, 0, true},
		{"shadow after bound", metricSet{[]string{"core-eval-agnostic", "core-eval-bound", "core-eval-shadow"}, []string{agn, bound}}, []float64{21, 7}, 0, false},
		{"two dependents", metricSet{[]string{"core-eval-agnostic", "core-eval-bound", "core-eval-runtime"},
			[]string{agn, bound, "core-eval-runtime:one"}}, []float64{21, 0.5, 1}, 0, false},
	} {
		var ev Evaluator
		p, err := ev.Plan(c.set, "sz3", evalOpts(0.5, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.DependentFeature(); ok {
			t.Errorf("%s: a dependent feature before any evaluation", c.name)
		}
		got, err := p.Evaluate(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		detailed, err := p.EvaluateDetailed(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.want {
			if got[i] != c.want[i] || detailed.Features[i] != c.want[i] {
				t.Errorf("%s: Evaluate %v, EvaluateDetailed %v, want %v", c.name, got, detailed.Features, c.want)
				break
			}
		}
		if j, ok := p.DependentFeature(); ok != c.depOK || (ok && j != c.dep) {
			t.Errorf("%s: DependentFeature = %d, %v; want %d, %v", c.name, j, ok, c.dep, c.depOK)
		}
	}

	// a missing feature fails as ExtractFeatures over the union does, and
	// leaves no dependent feature behind
	var ev Evaluator
	set := metricSet{[]string{"core-eval-agnostic", "core-eval-bound"}, []string{bound, "core-eval-none"}}
	p, err := ev.Plan(set, "sz3", evalOpts(0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Evaluate(ctx, data)
	detailed, derr := p.EvaluateDetailed(ctx, data)
	_, want := ExtractFeatures(detailed.Results, set.features)
	if err == nil || derr == nil || err.Error() != want.Error() {
		t.Errorf("missing feature: Evaluate %v, EvaluateDetailed %v, want %v", err, derr, want)
	}
	if _, ok := p.DependentFeature(); ok {
		t.Error("a failed Evaluate left a dependent feature")
	}
}
