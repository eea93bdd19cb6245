package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pressio"
	"repro/internal/stats"
)

// evalRuns counts BeginCompress calls per test metric across every
// instance the registry hands out (a plan instantiates its own).
var evalRuns struct{ agnostic, bound, runtime atomic.Int64 }

// evalAgnostic is error-agnostic with one option of its own.
type evalAgnostic struct {
	pressio.BaseMetric
	bins int64
	sum  float64
}

func (*evalAgnostic) Name() string { return "core-eval-agnostic" }
func (m *evalAgnostic) SetOptions(o pressio.Options) error {
	if v, ok := o.GetInt("core-eval:bins"); ok {
		m.bins = v
	}
	return nil
}
func (m *evalAgnostic) Options() pressio.Options {
	o := pressio.Options{}
	o.Set("core-eval:bins", m.bins)
	return o
}
func (m *evalAgnostic) BeginCompress(in *pressio.Data) {
	evalRuns.agnostic.Add(1)
	m.sum = 0
	for i := 0; i < in.Len(); i++ {
		m.sum += in.At(i)
	}
}
func (m *evalAgnostic) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-eval-agnostic:sum", m.sum+float64(m.bins))
	return o
}
func (*evalAgnostic) Invalidates() []string {
	return []string{pressio.InvalidateErrorAgnostic}
}

// evalBound is error-dependent; evalRuntime is a runtime observation.
type evalBound struct {
	pressio.BaseMetric
	abs float64
}

func (*evalBound) Name() string { return "core-eval-bound" }
func (m *evalBound) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.abs = v
	}
	return nil
}
func (m *evalBound) BeginCompress(*pressio.Data) { evalRuns.bound.Add(1) }
func (m *evalBound) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-eval-bound:abs", m.abs)
	return o
}
func (*evalBound) Invalidates() []string {
	return []string{pressio.OptAbs, pressio.InvalidateErrorDependent}
}

type evalRuntime struct{ pressio.BaseMetric }

func (*evalRuntime) Name() string                { return "core-eval-runtime" }
func (*evalRuntime) BeginCompress(*pressio.Data) { evalRuns.runtime.Add(1) }
func (*evalRuntime) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-eval-runtime:one", 1.0)
	return o
}
func (*evalRuntime) Invalidates() []string {
	return []string{pressio.InvalidateRuntime}
}

type evalScheme struct{ realTestScheme }

func (*evalScheme) Name() string { return "core-eval-scheme" }
func (*evalScheme) Metrics() []string {
	return []string{"core-eval-agnostic", "core-eval-bound", "core-eval-runtime"}
}
func (*evalScheme) Features() []string {
	return []string{"core-eval-agnostic:sum", "core-eval-bound:abs", "core-eval-runtime:one"}
}

func init() {
	pressio.RegisterMetric("core-eval-agnostic", func() pressio.Metric { return &evalAgnostic{} })
	pressio.RegisterMetric("core-eval-bound", func() pressio.Metric { return &evalBound{} })
	pressio.RegisterMetric("core-eval-runtime", func() pressio.Metric { return &evalRuntime{} })
}

// evaluateFeatures is Plan followed by Evaluate: one buffer, one option set.
func evaluateFeatures(ctx context.Context, e *Evaluator, set MetricSet, compressor string, opts pressio.Options, data *pressio.Data) ([]float64, error) {
	p, err := e.Plan(set, compressor, opts)
	if err != nil {
		return nil, err
	}
	return p.Evaluate(ctx, data)
}

func evalOpts(abs float64, bins int64) pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, abs)
	if bins != 0 {
		o.Set("core-eval:bins", bins)
	}
	return o
}

// runsDuring reports how often each test metric ran while fn did.
func runsDuring(fn func()) (agnostic, bound, runtime int64) {
	a, b, r := evalRuns.agnostic.Load(), evalRuns.bound.Load(), evalRuns.runtime.Load()
	fn()
	return evalRuns.agnostic.Load() - a, evalRuns.bound.Load() - b, evalRuns.runtime.Load() - r
}

func TestEvaluateFeaturesHonoursInvalidationClasses(t *testing.T) {
	ctx := context.Background()
	scheme := &evalScheme{}
	data := pressio.FromFloat32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	var ev Evaluator
	eval := func(abs float64, bins int64) []float64 {
		t.Helper()
		f, err := evaluateFeatures(ctx, &ev, scheme, "core-test-half", evalOpts(abs, bins), data)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// a 20-bound sweep: the error-agnostic metric runs once, the others 20 times
	a, b, r := runsDuring(func() {
		for i := 1; i <= 20; i++ {
			abs := float64(i) * 1e-4
			f := eval(abs, 0)
			if f[0] != 21 || f[1] != abs || f[2] != 1 {
				t.Fatalf("bound %g: features %v", abs, f)
			}
		}
	})
	if a != 1 || b != 20 || r != 20 {
		t.Errorf("sweep ran agnostic %d, error-dependent %d, runtime %d times; want 1, 20, 20", a, b, r)
	}
	if hits, misses := ev.MemoStats(); hits != 19 || misses != 1 {
		t.Errorf("memo stats %d hits / %d misses, want 19 / 1", hits, misses)
	}

	// the metric's own option is part of the key
	if a, _, _ := runsDuring(func() {
		if f := eval(1e-4, 7); f[0] != 28 {
			t.Errorf("bins=7: feature %v, want 28", f[0])
		}
		eval(2e-4, 7)
	}); a != 1 {
		t.Errorf("a new core-eval:bins ran the metric %d times over two bounds, want 1", a)
	}
	if a, _, _ := runsDuring(func() { eval(1e-4, 0) }); a != 0 {
		t.Errorf("the first option set was forgotten: %d runs", a)
	}

	// declarations that leave error-agnostic metrics valid keep the memo
	for _, keys := range [][]string{{pressio.OptAbs}, {pressio.InvalidateErrorDependent}, {pressio.InvalidateRuntime}} {
		if ev.Invalidate(keys) {
			t.Errorf("Invalidate(%v) reported error-agnostic metrics stale", keys)
		}
	}
	if a, _, _ := runsDuring(func() { eval(3e-4, 0) }); a != 0 {
		t.Errorf("an error-dependent invalidation dropped the memo: %d runs", a)
	}
	// the error-agnostic class moves the epoch
	if !ev.Invalidate([]string{pressio.InvalidateErrorAgnostic}) {
		t.Fatal("Invalidate(error_agnostic) reported nothing stale")
	}
	if a, _, _ := runsDuring(func() { eval(3e-4, 0); eval(4e-4, 0) }); a != 1 {
		t.Errorf("after the epoch moved the metric ran %d times over two bounds, want 1", a)
	}

	// a mutated buffer is a new buffer
	data.Set(0, 11)
	if a, _, _ := runsDuring(func() {
		if f := eval(1e-4, 0); f[0] != 31 {
			t.Errorf("after Set: feature %v, want 31", f[0])
		}
	}); a != 1 {
		t.Errorf("a mutated buffer served the old result (%d runs)", a)
	}

	// a second evaluator has its own epoch and shares nothing it should not
	var other Evaluator
	if a, _, _ := runsDuring(func() {
		if _, err := evaluateFeatures(ctx, &other, scheme, "core-test-half", evalOpts(1e-4, 0), data); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Errorf("an evaluator at epoch 0 was served a result stored at epoch 1 (%d runs)", a)
	}
}

func TestFeaturePlanReusedAcrossBuffers(t *testing.T) {
	ctx := context.Background()
	var ev Evaluator
	plan, err := ev.Plan(&evalScheme{}, "core-test-half", evalOpts(1e-3, 0))
	if err != nil {
		t.Fatal(err)
	}
	bufs := []*pressio.Data{
		pressio.FromFloat32([]float32{1, 2}, 2),
		pressio.FromFloat32([]float32{10, 20}, 2),
	}
	for round := 0; round < 2; round++ {
		for i, d := range bufs {
			f, err := plan.Evaluate(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			if want := []float64{3, 30}[i]; f[0] != want || f[1] != 1e-3 {
				t.Errorf("round %d buffer %d: features %v, want [%g 0.001 1]", round, i, f, want)
			}
		}
	}
	if hits, misses := ev.MemoStats(); hits != 2 || misses != 2 {
		t.Errorf("memo stats %d hits / %d misses, want 2 / 2", hits, misses)
	}
}

func TestEvaluateFeaturesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ev Evaluator
	_, err := evaluateFeatures(ctx, &ev, &evalScheme{}, "core-test-half", evalOpts(1e-3, 0), pressio.NewFloat32(4))
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluateFeaturesConcurrent evaluates one buffer from 8 goroutines
// at different bounds (run under -race): every vector must be the one a
// lone evaluation gives.
func TestEvaluateFeaturesConcurrent(t *testing.T) {
	ctx := context.Background()
	data := pressio.FromFloat32([]float32{1, 2, 3, 4}, 4)
	var ev Evaluator
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				abs := float64(g+1) * 1e-5 * float64(i+1)
				f, err := evaluateFeatures(ctx, &ev, &evalScheme{}, "core-test-half", evalOpts(abs, 0), data)
				if err != nil {
					t.Error(err)
					return
				}
				if f[0] != 10 || f[1] != abs || f[2] != 1 {
					t.Errorf("goroutine %d bound %g: features %v", g, abs, f)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := ev.MemoStats(); hits+misses != 400 || misses < 1 || misses > 8 {
		t.Errorf("memo stats %d hits / %d misses over 400 evaluations by 8 goroutines", hits, misses)
	}
}

// TestMemoSurvivesInvalidationRounds pins the slot discipline: an
// invalidation must not leave a dead entry per epoch behind, or twenty of
// them push the oldest values — a neighbour's, and the fused summary —
// out of the buffer's bounded slot.
func TestMemoSurvivesInvalidationRounds(t *testing.T) {
	ctx := context.Background()
	data := pressio.FromFloat32([]float32{1, 2, 3, 4}, 4)
	type sentinelKey struct{}
	data.StoreDerived(sentinelKey{}, "sentinel")
	summary := stats.SummaryOf(data, 0, 1)

	var ev Evaluator
	for round := 0; round < 20; round++ {
		if !ev.Invalidate([]string{pressio.InvalidateErrorAgnostic}) {
			t.Fatal("Invalidate(error_agnostic) reported nothing stale")
		}
		a, _, _ := runsDuring(func() {
			f, err := evaluateFeatures(ctx, &ev, &evalScheme{}, "core-test-half", evalOpts(1e-3, 0), data)
			if err != nil {
				t.Fatal(err)
			}
			if f[0] != 10 {
				t.Fatalf("round %d: feature %v, want 10", round, f[0])
			}
		})
		if a != 1 {
			t.Fatalf("round %d: the invalidated metric ran %d times, want 1", round, a)
		}
	}
	if v, _ := data.Derived(sentinelKey{}).(string); v != "sentinel" {
		t.Errorf("the sentinel was pushed out of the slot (got %q)", v)
	}
	if stats.SummaryOf(data, 0, 1) != summary {
		t.Error("the fused summary was pushed out of the slot and recomputed")
	}
}

// TestEvaluateDetailedMatchesEvaluate: the entries are one loop, so
// they agree on the vector, and what the detailed one reports is what
// ran; recording it costs the serving entry, EvaluateInto with a reused
// vector as predictd calls it, no allocation beyond what the same work
// without a plan allocates.
func TestEvaluateDetailedMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	var ev Evaluator
	plan, err := ev.Plan(&evalScheme{}, "core-test-half", evalOpts(1e-3, 0))
	if err != nil {
		t.Fatal(err)
	}
	data := pressio.FromFloat32([]float32{1, 2, 3}, 3)
	cold, err := plan.EvaluateDetailed(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Recomputed; len(got) != 3 || len(cold.MetricMS) != 3 {
		t.Errorf("cold pass ran %v with timings %v, want all three metrics", got, cold.MetricMS)
	}
	warm, err := plan.EvaluateDetailed(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Recomputed; len(got) != 2 || got[0] != "core-eval-bound" || got[1] != "core-eval-runtime" {
		t.Errorf("warm pass ran %v, want the bound and runtime metrics", got)
	}
	if _, timed := warm.MetricMS["core-eval-agnostic"]; timed || warm.ErrorAgnosticMS != 0 {
		t.Errorf("a memo hit was billed: %v, error-agnostic %v ms", warm.MetricMS, warm.ErrorAgnosticMS)
	}
	if sum := warm.MetricMS["core-eval-bound"] + warm.MetricMS["core-eval-runtime"]; warm.ErrorDependentMS != sum {
		t.Errorf("ErrorDependentMS %v is not the sum %v of its metrics", warm.ErrorDependentMS, sum)
	}
	vec, err := plan.Evaluate(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Evaluation{cold, warm} {
		if len(d.Features) != len(vec) || d.Features[0] != vec[0] || d.Features[1] != vec[1] || d.Features[2] != vec[2] {
			t.Errorf("detailed features %v, Evaluate %v", d.Features, vec)
		}
		if v, _ := d.Results.GetFloat("core-eval-agnostic:sum"); v != 6 {
			t.Errorf("union results lack the memoised metric: %v", d.Results)
		}
	}

	// the same work without a plan: the memoised results merged, the two
	// other metrics run and merged, the vector extracted — no clock, no
	// record of what ran
	running := []pressio.Metric{&evalBound{abs: 1e-3}, &evalRuntime{}}
	memo := (&evalAgnostic{sum: 6}).Results()
	results := pressio.Options{}
	features := (&evalScheme{}).Features()
	untimed := testing.AllocsPerRun(100, func() {
		clear(results)
		results.Merge(memo)
		for _, m := range running {
			m.BeginCompress(data)
			results.Merge(m.Results())
		}
		if _, err := ExtractFeatures(results, features); err != nil {
			t.Fatal(err)
		}
	})
	dst := make([]float64, len(features))
	timed := testing.AllocsPerRun(100, func() {
		if _, err := plan.EvaluateInto(ctx, data, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("EvaluateInto %v allocs/op, the untimed loop %v", timed, untimed)
	if timed > untimed {
		t.Errorf("plan.EvaluateInto allocates %v/op, the untimed loop %v/op: timing must add none", timed, untimed)
	}
}
