package core

import (
	"testing"

	"repro/internal/mlkit"
	"repro/internal/pressio"
)

// test fixtures: a compressor and metrics registered only for this test
// binary (names are namespaced to avoid colliding with real plugins).

type halfCompressor struct{ opts pressio.Options }

func (h *halfCompressor) Name() string { return "half" }
func (h *halfCompressor) Compress(in *pressio.Data) (*pressio.Data, error) {
	return pressio.NewByte(make([]byte, in.ByteSize()/2)), nil
}
func (h *halfCompressor) Decompress(_ *pressio.Data, out *pressio.Data) error { return nil }
func (h *halfCompressor) SetOptions(o pressio.Options) error {
	if h.opts == nil {
		h.opts = pressio.Options{}
	}
	h.opts.Merge(o)
	return nil
}
func (h *halfCompressor) Options() pressio.Options       { return h.opts }
func (h *halfCompressor) Configuration() pressio.Options { return pressio.Options{} }

// countingMetric counts how many times it was computed; error-agnostic.
type countingMetric struct {
	pressio.BaseMetric
	runs int
}

func (m *countingMetric) Name() string { return "core-test-agnostic" }
func (m *countingMetric) BeginCompress(*pressio.Data) {
	m.runs++
}
func (m *countingMetric) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-test-agnostic:value", 2.0)
	o.Set("core-test-agnostic:runs", int64(m.runs))
	return o
}
func (m *countingMetric) Invalidates() []string {
	return []string{pressio.InvalidateErrorAgnostic}
}

// boundMetric is error-dependent on pressio:abs.
type boundMetric struct {
	pressio.BaseMetric
	abs  float64
	runs int
}

func (m *boundMetric) Name() string { return "core-test-bound" }
func (m *boundMetric) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.abs = v
	}
	return nil
}
func (m *boundMetric) BeginCompress(*pressio.Data) { m.runs++ }
func (m *boundMetric) Results() pressio.Options {
	o := pressio.Options{}
	o.Set("core-test-bound:value", m.abs*10)
	o.Set("core-test-bound:runs", int64(m.runs))
	return o
}
func (m *boundMetric) Invalidates() []string {
	return []string{pressio.OptAbs, pressio.InvalidateErrorDependent}
}

type realTestScheme struct{}

func (*realTestScheme) Name() string { return "core-test-scheme" }
func (*realTestScheme) Info() Info {
	return Info{Method: "Test", Goal: "fast", Approach: "calculation", Metrics: "CR"}
}
func (*realTestScheme) Supports(c string) bool { return c == "core-test-half" }
func (*realTestScheme) Metrics() []string {
	return []string{"core-test-agnostic", "core-test-bound"}
}
func (*realTestScheme) Features() []string {
	return []string{"core-test-agnostic:value", "core-test-bound:value"}
}
func (*realTestScheme) Target() string { return "size:compression_ratio" }
func (*realTestScheme) NewPredictor(string) (Predictor, error) {
	return &IdentityPredictor{Index: 1}, nil
}

func init() {
	pressio.RegisterCompressor("core-test-half", func() pressio.Compressor { return &halfCompressor{} })
	pressio.RegisterMetric("core-test-agnostic", func() pressio.Metric { return &countingMetric{} })
	pressio.RegisterMetric("core-test-bound", func() pressio.Metric { return &boundMetric{} })
	RegisterScheme("core-test-scheme", func() Scheme { return &realTestScheme{} })
	RegisterScheme("core-eval-scheme", func() Scheme { return &evalScheme{} })
}

func TestSchemeRegistry(t *testing.T) {
	s, err := GetScheme("core-test-scheme")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "core-test-scheme" {
		t.Errorf("Name = %q", s.Name())
	}
	if _, err := GetScheme("missing-scheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
	found := false
	for _, n := range SchemeNames() {
		if n == "core-test-scheme" {
			found = true
		}
	}
	if !found {
		t.Error("SchemeNames missing registered scheme")
	}
}

func TestIsStale(t *testing.T) {
	cases := []struct {
		name        string
		metricInv   []string
		invalidated []string
		want        bool
	}{
		{"direct key", []string{pressio.OptAbs}, []string{pressio.OptAbs}, true},
		{"unrelated key", []string{pressio.OptAbs}, []string{"sz3:lorenzo"}, false},
		{"class match", []string{pressio.InvalidateErrorDependent}, []string{pressio.InvalidateErrorDependent}, true},
		{"generic covers specific", []string{pressio.OptAbs}, []string{pressio.InvalidateErrorDependent}, true},
		{"agnostic untouched by error", []string{pressio.InvalidateErrorAgnostic}, []string{pressio.InvalidateErrorDependent, pressio.OptAbs}, false},
		{"agnostic by class", []string{pressio.InvalidateErrorAgnostic}, []string{pressio.InvalidateErrorAgnostic}, true},
		{"runtime", []string{pressio.InvalidateRuntime}, []string{pressio.InvalidateRuntime}, true},
		{"empty invalidation", []string{pressio.OptAbs}, nil, false},
	}
	for _, c := range cases {
		if got := IsStale(c.metricInv, c.invalidated); got != c.want {
			t.Errorf("%s: IsStale(%v, %v) = %v, want %v", c.name, c.metricInv, c.invalidated, got, c.want)
		}
	}
}

func TestStageOf(t *testing.T) {
	if s := StageOf(&countingMetric{}); s != StageErrorAgnostic {
		t.Errorf("agnostic metric stage = %v", s)
	}
	if s := StageOf(&boundMetric{}); s != StageErrorDependent {
		t.Errorf("bound metric stage = %v", s)
	}
	if StageErrorAgnostic.String() != "error-agnostic" || StageRuntime.String() != "runtime" {
		t.Error("stage names wrong")
	}
}

func TestSessionFigure4Flow(t *testing.T) {
	// the paper's Figure-4 usage sketch end to end
	s, err := NewSession("core-test-scheme", "core-test-half")
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 0.5)
	if err := s.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	data := pressio.NewFloat32(64)
	pred, ev, err := s.Predict(data)
	if err != nil {
		t.Fatal(err)
	}
	// identity predictor index 1 → bound metric value = abs*10 = 5
	if pred != 5 {
		t.Errorf("prediction = %v, want 5", pred)
	}
	if len(ev.Recomputed) != 2 {
		t.Errorf("first evaluation should compute both metrics, got %v", ev.Recomputed)
	}
}

func TestSessionInvalidationCaching(t *testing.T) {
	s, err := NewSession("core-test-scheme", "core-test-half")
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 0.1)
	s.SetOptions(opts)
	data := pressio.NewFloat32(32)

	if _, err := s.Evaluate(data); err != nil {
		t.Fatal(err)
	}
	// nothing invalidated: second evaluation is a full cache hit
	ev2, err := s.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev2.Recomputed) != 0 {
		t.Errorf("expected full cache hit, recomputed %v", ev2.Recomputed)
	}

	// change the bound and invalidate it: only the bound metric reruns
	opts.Set(pressio.OptAbs, 0.2)
	s.SetOptions(opts)
	stale := s.Invalidate(pressio.OptAbs)
	if len(stale) != 1 || stale[0] != "core-test-bound" {
		t.Errorf("stale = %v, want [core-test-bound]", stale)
	}
	ev3, err := s.Evaluate(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev3.Recomputed) != 1 || ev3.Recomputed[0] != "core-test-bound" {
		t.Errorf("recomputed = %v", ev3.Recomputed)
	}
	if v, _ := ev3.Results.GetFloat("core-test-bound:value"); v != 2.0 {
		t.Errorf("bound metric did not observe new option: %v", v)
	}
	if v, _ := ev3.Results.GetInt("core-test-agnostic:runs"); v != 1 {
		t.Errorf("agnostic metric reran: %v runs", v)
	}
	// the error-agnostic stage must have cost zero on the cached pass
	if ev3.ErrorAgnosticMS != 0 {
		t.Errorf("cached agnostic stage billed %v ms", ev3.ErrorAgnosticMS)
	}

	// InvalidateAll reruns everything
	s.InvalidateAll()
	ev4, _ := s.Evaluate(data)
	if len(ev4.Recomputed) != 2 {
		t.Errorf("InvalidateAll should rerun both, got %v", ev4.Recomputed)
	}
}

// TestSessionNoticesNewBuffer: the last evaluation answers only for the
// buffer it was computed on. A caller who moves to another buffer, or
// mutates this one, and forgets InvalidateAll gets that buffer's
// features, never the previous one's.
func TestSessionNoticesNewBuffer(t *testing.T) {
	s, err := NewSession("core-eval-scheme", "core-test-half")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetOptions(evalOpts(0.5, 0)); err != nil {
		t.Fatal(err)
	}
	a := pressio.FromFloat32([]float32{1, 2, 3}, 3)
	b := pressio.FromFloat32([]float32{10, 20, 30}, 3)
	sum := func(d *pressio.Data) (float64, *Evaluation) {
		t.Helper()
		ev, err := s.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Features[0], ev
	}
	if got, _ := sum(a); got != 6 {
		t.Fatalf("buffer a: feature %v, want 6", got)
	}
	if got, ev := sum(b); got != 60 || len(ev.Recomputed) != 3 {
		t.Errorf("buffer b after a, nothing declared: feature %v (recomputed %v), want 60 from a full run", got, ev.Recomputed)
	}
	if got, ev := sum(b); got != 60 || len(ev.Recomputed) != 0 {
		t.Errorf("buffer b again: feature %v, recomputed %v; want the last evaluation", got, ev.Recomputed)
	}
	b.Set(0, 11)
	if got, _ := sum(b); got != 61 {
		t.Errorf("buffer b after Set: feature %v, want 61", got)
	}
	// back on a: its error-agnostic result is still on the buffer
	if got, ev := sum(a); got != 6 || len(ev.Recomputed) != 2 || ev.ErrorAgnosticMS != 0 {
		t.Errorf("buffer a again: feature %v, recomputed %v, error-agnostic %v ms; want 6 from the memo", got, ev.Recomputed, ev.ErrorAgnosticMS)
	}
	// a declaration that hits nothing of this scheme keeps the last evaluation
	if stale := s.Invalidate("sz3:quant_bins"); len(stale) != 0 {
		t.Errorf("Invalidate(sz3:quant_bins) = %v, want nothing", stale)
	}
	if _, ev := sum(a); len(ev.Recomputed) != 0 {
		t.Errorf("after a declaration that hit nothing: recomputed %v", ev.Recomputed)
	}
	if stale := s.Invalidate(pressio.InvalidateErrorAgnostic); len(stale) != 1 || stale[0] != "core-eval-agnostic" {
		t.Errorf("Invalidate(error_agnostic) = %v, want [core-eval-agnostic]", stale)
	}
	if _, ev := sum(a); len(ev.Recomputed) != 3 {
		t.Errorf("after Invalidate(error_agnostic): recomputed %v, want all three", ev.Recomputed)
	}
}

func TestSessionRejectsUnsupportedCompressor(t *testing.T) {
	if _, err := NewSession("core-test-scheme", "sz3-not-registered-here"); err == nil {
		t.Error("unsupported compressor accepted")
	}
}

func TestExtractFeatures(t *testing.T) {
	r := pressio.Options{}
	r.Set("a", 1.5)
	r.Set("b", int64(3))
	f, err := ExtractFeatures(r, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 1.5 || f[1] != 3 {
		t.Errorf("features = %v", f)
	}
	if _, err := ExtractFeatures(r, []string{"missing"}); err == nil {
		t.Error("missing feature accepted")
	}
}

func TestIdentityPredictor(t *testing.T) {
	p := &IdentityPredictor{Index: 2}
	if p.Trains() {
		t.Error("identity should not train")
	}
	v, err := p.Predict([]float64{1, 2, 3})
	if err != nil || v != 3 {
		t.Errorf("Predict = %v, %v", v, err)
	}
	if _, err := p.Predict([]float64{1}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := p.Fit(nil, nil); err != nil {
		t.Error("identity Fit should be a no-op")
	}
	b, err := p.Save()
	if err != nil || b == nil {
		t.Error("Save failed")
	}
	if err := p.Load(b); err != nil {
		t.Error("Load failed")
	}
}

func TestModelPredictorSaveLoad(t *testing.T) {
	p := &ModelPredictor{ModelName: "lin", Model: &mlkit.LinearRegression{}, ClampMin: 1}
	if !p.Trains() {
		t.Error("model predictor should train")
	}
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{2, 4, 6, 8}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	state, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	q := &ModelPredictor{ModelName: "lin", Model: &mlkit.LinearRegression{}, ClampMin: 1}
	if err := q.Load(state); err != nil {
		t.Fatal(err)
	}
	a, _ := p.Predict([]float64{5})
	b, _ := q.Predict([]float64{5})
	if a != b {
		t.Errorf("restored predictor differs: %v vs %v", a, b)
	}
	// clamp floor
	lo, _ := p.Predict([]float64{-100})
	if lo < 1 {
		t.Errorf("clamp failed: %v", lo)
	}
}

func TestObserveTarget(t *testing.T) {
	data := pressio.NewFloat32(128)
	cr, cms, dms, err := ObserveTarget("core-test-half", data, pressio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cr != 2.0 {
		t.Errorf("cr = %v, want 2 (half compressor)", cr)
	}
	if cms < 0 || dms < 0 {
		t.Error("negative timings")
	}
	if _, _, _, err := ObserveTarget("missing", data, pressio.Options{}); err == nil {
		t.Error("unknown compressor accepted")
	}
}

func TestModelPredictorInterval(t *testing.T) {
	// conformal-backed predictor exposes real intervals
	p := &ModelPredictor{
		ModelName: "conformal",
		Model:     &mlkit.Conformal{Base: &mlkit.LinearRegression{}},
	}
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 2*float64(i)+float64(i%3)) // slight noise
	}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, lo, hi, err := p.PredictInterval([]float64{10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= pred && pred <= hi) {
		t.Errorf("interval [%v, %v] does not contain prediction %v", lo, hi, pred)
	}
	if hi-lo <= 0 {
		t.Error("conformal interval should have positive width on noisy data")
	}

	// non-conformal model degrades to a point interval
	q := &ModelPredictor{ModelName: "lin", Model: &mlkit.LinearRegression{}}
	q.Fit(x, y)
	pred, lo, hi, err = q.PredictInterval([]float64{10}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != pred || hi != pred {
		t.Errorf("point model interval should be degenerate: %v [%v, %v]", pred, lo, hi)
	}
}

func TestGanguliPredictorIsIntervalPredictor(t *testing.T) {
	s, err := GetScheme("core-test-scheme")
	if err != nil {
		t.Fatal(err)
	}
	_ = s // the real check targets ganguli via the predictors package tests
	var ip IntervalPredictor = &ModelPredictor{
		Model: &mlkit.Conformal{Base: &mlkit.LinearRegression{}},
	}
	if ip == nil {
		t.Fatal("ModelPredictor must satisfy IntervalPredictor")
	}
}

// trainingTestScheme is realTestScheme with a trained predictor, for
// SchemeStale's predictors:training handling.
type trainingTestScheme struct{ realTestScheme }

func (*trainingTestScheme) Info() Info {
	return Info{Method: "Test", Training: true, Goal: "accurate", Approach: "regression", Metrics: "CR"}
}
func (*trainingTestScheme) NewPredictor(string) (Predictor, error) {
	return &ModelPredictor{ModelName: "linreg", Model: &mlkit.LinearRegression{}}, nil
}

func TestSchemeStale(t *testing.T) {
	scheme := &realTestScheme{}
	for _, tc := range []struct {
		keys []string
		want bool
	}{
		{[]string{pressio.OptAbs}, true},                   // specific option of the bound metric
		{[]string{pressio.InvalidateErrorDependent}, true}, // class key covers pressio:abs
		{[]string{pressio.InvalidateErrorAgnostic}, true},  // the counting metric
		{[]string{"sz3:quant_bins"}, false},                // unrelated option
		{[]string{pressio.InvalidateTraining}, false},      // identity predictor: nothing trained
		{nil, false},
	} {
		got, err := SchemeStale(scheme, tc.keys)
		if err != nil {
			t.Fatalf("SchemeStale(%v): %v", tc.keys, err)
		}
		if got != tc.want {
			t.Errorf("SchemeStale(%v) = %v, want %v", tc.keys, got, tc.want)
		}
	}
	// a scheme whose predictor trains IS stale under a training invalidation
	got, err := SchemeStale(&trainingTestScheme{}, []string{pressio.InvalidateTraining})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("training scheme should be stale under predictors:training")
	}
}
