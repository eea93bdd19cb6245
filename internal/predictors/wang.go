package predictors

import (
	"fmt"
	"math"

	"repro/internal/compressor/sz3"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/mlkit"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// Option keys of the zperf_model metric.
const (
	// OptZperfPredictor selects the modelled prediction stage:
	// "lorenzo" (default), "interp", "regression" (SZ2-style block
	// hyperplanes), or "mean" ("zperf:predictor").
	OptZperfPredictor = "zperf:predictor"
	// OptZperfCoder selects the modelled coding stage: "huffman"
	// (default), "entropy" (an ideal entropy coder), or "fixed"
	// (fixed-width codes) ("zperf:coder").
	OptZperfCoder = "zperf:coder"
	// OptZperfLossless toggles the modelled lossless backend:
	// "estimate" (default) or "none" ("zperf:lossless").
	OptZperfLossless = "zperf:lossless"
	// OptZperfSampleFraction sets the sampled fraction ("zperf:sample_fraction").
	OptZperfSampleFraction = "zperf:sample_fraction"
)

func init() {
	pressio.RegisterMetric("zperf_model", func() pressio.Metric { return &ZperfModel{} })
	core.RegisterScheme("wang2023", func() core.Scheme { return &wangScheme{} })
}

// ZperfModel is the metric plugin implementing the ZPerf approach of Wang
// 2023: compression performance is decomposed into the stages common to
// prediction-based compressors, each stage has a swappable model, and —
// crucially — the stage models can describe *compressor architectures
// that do not exist yet*, enabling the counterfactual design analysis the
// paper highlights (§2.1): discard unpromising designs before spending
// hundreds of person-hours building them.
type ZperfModel struct {
	pressio.BaseMetric
	Abs       float64
	Predictor string
	Coder     string
	Lossless  string
	Fraction  float64
	results   pressio.Options
}

// Name implements pressio.Metric.
func (*ZperfModel) Name() string { return "zperf_model" }

// zperfInvalidates is ZperfModel's predictors:invalidate list: the model
// is error-dependent and also invalidated when any counterfactual stage
// selection changes.
var zperfInvalidates = []string{
	pressio.OptAbs, pressio.InvalidateErrorDependent,
	OptZperfPredictor, OptZperfCoder, OptZperfLossless,
}

// Invalidates implements pressio.Metric.
func (*ZperfModel) Invalidates() []string { return zperfInvalidates }

// SetOptions implements pressio.Metric.
func (m *ZperfModel) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	if v, ok := o.GetString(OptZperfPredictor); ok {
		switch v {
		case "lorenzo", "interp", "mean", "regression":
			m.Predictor = v
		default:
			return fmt.Errorf("zperf_model: unknown predictor stage %q", v)
		}
	}
	if v, ok := o.GetString(OptZperfCoder); ok {
		switch v {
		case "huffman", "entropy", "fixed":
			m.Coder = v
		default:
			return fmt.Errorf("zperf_model: unknown coder stage %q", v)
		}
	}
	if v, ok := o.GetString(OptZperfLossless); ok {
		switch v {
		case "estimate", "none":
			m.Lossless = v
		default:
			return fmt.Errorf("zperf_model: unknown lossless stage %q", v)
		}
	}
	if v, ok := o.GetFloat(OptZperfSampleFraction); ok {
		if v <= 0 || v > 1 {
			return fmt.Errorf("zperf_model: sample fraction %v outside (0, 1]", v)
		}
		m.Fraction = v
	}
	return nil
}

// Options implements pressio.Metric.
func (m *ZperfModel) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, m.abs())
	o.Set(OptZperfPredictor, m.predictor())
	o.Set(OptZperfCoder, m.coder())
	o.Set(OptZperfLossless, m.lossless())
	o.Set(OptZperfSampleFraction, m.fraction())
	return o
}

func (m *ZperfModel) abs() float64 {
	if m.Abs <= 0 {
		return 1e-4
	}
	return m.Abs
}

func (m *ZperfModel) predictor() string {
	if m.Predictor == "" {
		return "lorenzo"
	}
	return m.Predictor
}

func (m *ZperfModel) coder() string {
	if m.Coder == "" {
		return "huffman"
	}
	return m.Coder
}

func (m *ZperfModel) lossless() string {
	if m.Lossless == "" {
		return "estimate"
	}
	return m.Lossless
}

func (m *ZperfModel) fraction() float64 {
	if m.Fraction <= 0 || m.Fraction > 1 {
		return 0.25
	}
	return m.Fraction
}

// BeginCompress implements pressio.Metric: run the composed stage models
// on a sample and derive the counterfactual compression ratio.
func (m *ZperfModel) BeginCompress(in *pressio.Data) {
	elemBits := in.DType().Size() * 8
	r := pressio.Options{}

	// sampled contiguous prefix slabs (ZPerf samples planes); the prefix
	// is all of the buffer that is read
	n := in.Len()
	sampleLen := int(float64(n) * m.fraction())
	if sampleLen < 64 {
		sampleLen = min(n, 64)
	}
	sample := stats.Float64Run(in, 0, sampleLen, nil)

	// stage 1: prediction residuals under the selected predictor model
	hist, outliers := m.residualHistogram(sample)

	// stage 2+3: quantization-code distribution → coding cost
	var bitsPerSym float64
	switch m.coder() {
	case "entropy":
		bitsPerSym = stats.EntropyFromCounts(hist.Counts)
	case "fixed":
		// fixed-width codes sized to the alphabet, one bit at least
		bitsPerSym = math.Max(1, math.Ceil(math.Log2(float64(hist.Len()))))
	default: // huffman
		bitsPerSym = huffman.MeanCodeLength(hist)
	}

	// stage 4: lossless backend
	efficiency := 1.0
	if m.lossless() == "estimate" {
		efficiency = 0.90
	}
	est := bitsPerValue(bitsPerSym, outliers, uint64(sampleLen), elemBits, efficiency, 0)
	cr := float64(elemBits) / est
	if cr < 1 {
		cr = 1
	}
	r.Set("zperf_model:cr", cr)
	r.Set("zperf_model:bits_per_value", est)
	m.results = r
}

// residualHistogram applies the selected prediction-stage model to the
// sample and quantizes the residuals with sz3's default bin budget.
func (m *ZperfModel) residualHistogram(sample []float64) (huffman.Histogram, uint64) {
	cm := codeModelPool.Get().(*codeModel)
	defer codeModelPool.Put(cm)
	cm.reset(m.abs(), sz3.DefaultBins)
	codes := cm.room(len(sample))
	switch m.predictor() {
	case "regression":
		// SZ2-style block regression: reuse the compressor's own stage
		sz3.PredictQuantizeRegression(codes, sample, []int{len(sample)}, &cm.q)
	case "mean":
		mean := stats.Mean(sample)
		for i, v := range sample {
			codes[i] = cm.q.Code(v - mean)
		}
	case "interp":
		// midpoint interpolation at stride 2
		for i, v := range sample {
			var pred float64
			if i >= 1 && i+1 < len(sample) && i%2 == 1 {
				pred = (sample[i-1] + sample[i+1]) / 2
			} else if i >= 2 {
				pred = sample[i-2]
			}
			codes[i] = cm.q.Code(v - pred)
		}
	default: // lorenzo (1-D on the sampled slab)
		sz3.CodesLorenzo(&cm.q, codes, sample, []int{len(sample)})
	}
	cm.take(codes)
	hist, outliers := cm.histogram(), cm.outliers
	return hist, outliers
}

// Results implements pressio.Metric.
func (m *ZperfModel) Results() pressio.Options { return m.results.Clone() }

// wangScheme wires zperf_model as the wang2023 scheme. Matching ZPerf's
// gray-box design, a light statistical calibration (linear regression of
// the true target on the stage-model estimate) is trained on observed
// runs, and the capability flag advertises counterfactual analysis.
type wangScheme struct{}

func (*wangScheme) Name() string { return "wang2023" }

func (*wangScheme) Info() core.Info {
	return core.Info{
		Method:   "Wang [20]",
		Training: true,
		Sampling: true,
		BlackBox: "no",
		Goal:     "accurate",
		Metrics:  "CR",
		Approach: "calculation",
		Features: "counterfactuals",
	}
}

// Supports implements core.Scheme: the stage decomposition describes
// prediction-based compressors.
func (*wangScheme) Supports(compressor string) bool {
	return compressor == "sz3" || compressor == "szx"
}

func (*wangScheme) Metrics() []string  { return []string{"zperf_model"} }
func (*wangScheme) Features() []string { return []string{"zperf_model:cr"} }
func (*wangScheme) Target() string     { return "size:compression_ratio" }

func (*wangScheme) NewPredictor(string) (core.Predictor, error) {
	return &core.ModelPredictor{
		ModelName: "zperf_calibration",
		Model:     &mlkit.LinearRegression{},
		ClampMin:  1,
	}, nil
}
