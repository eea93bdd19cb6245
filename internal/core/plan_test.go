package core

import (
	"context"
	"slices"
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
func (*evalShadow) Invalidates() []string {
	return []string{pressio.InvalidateErrorAgnostic}
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

// evalTyped is error-dependent, reads its result by pressio.FloatResulter
// and reports core-eval-agnostic:sum too: a key an error-agnostic metric
// holds, whose value the buffer's feature vector keeps.
type evalTyped struct {
	pressio.BaseMetric
	abs float64
}

func (*evalTyped) Name() string { return "core-eval-typed" }
func (m *evalTyped) SetOptions(o pressio.Options) error {
	m.abs, _ = o.GetFloat(pressio.OptAbs)
	return nil
}
func (m *evalTyped) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-eval-agnostic:sum", -m.abs)
	return o
}
func (m *evalTyped) ResultFloat(key string) (float64, bool) {
	if key == "core-eval-agnostic:sum" {
		return -m.abs, true
	}
	return 0, false
}
func (*evalTyped) Invalidates() []string {
	return []string{pressio.OptAbs, pressio.InvalidateErrorDependent}
}

func init() {
	pressio.RegisterMetric("core-eval-typed", func() pressio.Metric { return &evalTyped{} })
}

// TestTypedReadAfterTheVector: an error-dependent metric read through
// its typed result reports a key an error-agnostic metric reports too.
// From the second evaluation of a buffer on, the error-agnostic features
// come from the buffer's vector; the later metric in plan order still
// wins, as in the union EvaluateDetailed builds, at every bound, and a
// typed metric that lacks a key leaves the vector's value standing.
func TestTypedReadAfterTheVector(t *testing.T) {
	ctx := context.Background()
	agn, shadowed := "core-eval-agnostic:sum", "core-eval-bound:abs"
	for _, c := range []struct {
		name     string
		metrics  []string
		features []string
		want     func(abs float64) []float64
		dep      int // the feature the typed metric supplies, or -1
	}{
		{"typed after agnostic", []string{"core-eval-agnostic", "core-eval-typed"}, []string{agn},
			func(abs float64) []float64 { return []float64{-abs} }, 0},
		{"agnostic after typed", []string{"core-eval-typed", "core-eval-agnostic"}, []string{agn},
			func(float64) []float64 { return []float64{10} }, -1},
		{"typed lacks the key", []string{"core-eval-shadow", "core-eval-agnostic", "core-eval-typed"}, []string{shadowed, agn},
			func(abs float64) []float64 { return []float64{7, -abs} }, 1},
	} {
		var ev Evaluator
		data := pressio.FromFloat32([]float32{1, 2, 3, 4}, 4)
		for round, abs := range []float64{0.5, 0.25, 0.125} {
			p, err := ev.Plan(metricSet{c.metrics, c.features}, "sz3", evalOpts(abs, 0))
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.EvaluateInto(ctx, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			j, ok := p.DependentFeature()
			detailed, err := p.EvaluateDetailed(ctx, data)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.want(abs); !slices.Equal(got, want) || !slices.Equal(detailed.Features, want) {
				t.Errorf("%s, round %d: Evaluate %v, EvaluateDetailed %v, want %v", c.name, round, got, detailed.Features, want)
			}
			if ok != (c.dep >= 0) || (ok && j != c.dep) {
				t.Errorf("%s, round %d: DependentFeature = %d, %v; want %d", c.name, round, j, ok, c.dep)
			}
		}
		// the error-agnostic metrics ran once: a vector read counts a hit
		// for each, and so does EvaluateDetailed's read of their results
		n := uint64(len(c.metrics) - 1)
		if hits, misses := ev.MemoStats(); misses != n || hits != 5*n {
			t.Errorf("%s: memo %d hits / %d misses, want %d / %d", c.name, hits, misses, 5*n, n)
		}
	}
}
