package predictors

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pressio"
)

func zperfCR(t *testing.T, data *pressio.Data, predictor, coder, lossless string) float64 {
	t.Helper()
	m := &ZperfModel{}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	opts.Set(OptZperfPredictor, predictor)
	opts.Set(OptZperfCoder, coder)
	opts.Set(OptZperfLossless, lossless)
	if err := m.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	m.BeginCompress(data)
	cr, ok := m.Results().GetFloat("zperf_model:cr")
	if !ok {
		t.Fatal("missing zperf_model:cr")
	}
	return cr
}

func TestZperfStageOrdering(t *testing.T) {
	data := field(t, "TC", 20)
	lorenzoHuff := zperfCR(t, data, "lorenzo", "huffman", "estimate")
	meanHuff := zperfCR(t, data, "mean", "huffman", "estimate")
	lorenzoFixed := zperfCR(t, data, "lorenzo", "fixed", "none")

	// a spatial predictor must beat the mean predictor on smooth data
	if lorenzoHuff <= meanHuff {
		t.Errorf("lorenzo (%v) should beat mean predictor (%v)", lorenzoHuff, meanHuff)
	}
	// variable-length coding must beat fixed-width codes
	if lorenzoHuff <= lorenzoFixed {
		t.Errorf("huffman (%v) should beat fixed-width (%v)", lorenzoHuff, lorenzoFixed)
	}
	// the lossless backend can only help
	noBackend := zperfCR(t, data, "lorenzo", "huffman", "none")
	if lorenzoHuff < noBackend {
		t.Errorf("lossless backend made the estimate worse: %v < %v", lorenzoHuff, noBackend)
	}
}

func TestZperfEntropyBeatsHuffmanSlightly(t *testing.T) {
	// an ideal entropy coder is the lower bound on the huffman stage
	data := field(t, "QVAPOR", 20)
	huff := zperfCR(t, data, "lorenzo", "huffman", "none")
	ent := zperfCR(t, data, "lorenzo", "entropy", "none")
	if ent < huff {
		t.Errorf("ideal entropy coder (%v) cannot be worse than huffman (%v)", ent, huff)
	}
}

func TestZperfCounterfactualInvalidation(t *testing.T) {
	// changing a stage selection must invalidate the metric
	m := &ZperfModel{}
	inv := m.Invalidates()
	found := false
	for _, k := range inv {
		if k == OptZperfCoder {
			found = true
		}
	}
	if !found {
		t.Error("coder stage selection must be an invalidation trigger")
	}
}

func TestZperfValidation(t *testing.T) {
	m := &ZperfModel{}
	for _, bad := range []pressio.Options{
		optsWith(OptZperfPredictor, "psychic"),
		optsWith(OptZperfCoder, "magic"),
		optsWith(OptZperfLossless, "maybe"),
		optsWith(OptZperfSampleFraction, 2.0),
	} {
		if err := m.SetOptions(bad); err == nil {
			t.Errorf("options %v accepted", bad)
		}
	}
}

func optsWith(key string, v any) pressio.Options {
	o := pressio.Options{}
	o.Set(key, v)
	return o
}

func TestWangSchemeCalibrates(t *testing.T) {
	// the gray-box calibration: a linear fit of truth on the stage-model
	// estimate should tighten raw model predictions
	scheme, err := core.GetScheme("wang2023")
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.Supports("sz3") || scheme.Supports("zfp") {
		t.Error("wang2023 should support prediction-based compressors only")
	}
	pred, err := scheme.NewPredictor("sz3")
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Trains() {
		t.Fatal("wang2023 must train its calibration")
	}
	// calibrate y = 2x + 1 and check it is learned
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{3, 5, 7, 9}
	if err := pred.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	v, err := pred.Predict([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if v < 10.9 || v > 11.1 {
		t.Errorf("calibration predict(5) = %v, want 11", v)
	}
}

func TestZperfRegressionStage(t *testing.T) {
	// a noisy gradient: regression beats lorenzo, both beat mean
	data := pressio.NewFloat32(4096)
	for i := 0; i < data.Len(); i++ {
		data.Set(i, float64(i)*0.01+0.3*float64((int64(i)*2654435761)%1000)/1000)
	}
	reg := zperfCR(t, data, "regression", "huffman", "none")
	mean := zperfCR(t, data, "mean", "huffman", "none")
	if reg <= mean {
		t.Errorf("regression stage (%v) should beat mean predictor (%v)", reg, mean)
	}
}
