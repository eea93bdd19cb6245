package predictors

import (
	"fmt"

	"repro/internal/compressor/sz3"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// Option keys of the jin_model metric.
const (
	// OptJinFastIterator ("jin:fast_iterator", default true) selects sz3's
	// row stage; false runs the profiled naive iterator instead — the
	// ablation of §6. Every result bit is the same either way.
	OptJinFastIterator = "jin:fast_iterator"
	// OptJinQuantBins sets the modelled quantizer bin budget.
	OptJinQuantBins = "jin:quant_bins"
)

func init() {
	pressio.RegisterMetric("jin_model", func() pressio.Metric { return &JinModel{FastIter: true} })
	core.RegisterScheme("jin2022", func() core.Scheme { return &jinScheme{} })
}

// JinModel is the metric plugin implementing Jin 2022's ratio-quality
// model: it decomposes prediction-based compression into prediction,
// quantization, and encoding, runs the first two stages analytically over
// the data to obtain the quantization-code distribution, and derives the
// compression ratio from the Huffman code-length analysis plus a lossless
// stage efficiency — without running the expensive encoding stages.
type JinModel struct {
	pressio.BaseMetric
	Abs      float64
	Bins     int
	FastIter bool
	results  pressio.Options
}

// Name implements pressio.Metric.
func (*JinModel) Name() string { return "jin_model" }

// Invalidates implements pressio.Metric: the model depends on the error
// bound.
func (*JinModel) Invalidates() []string { return absDependent }

// SetOptions implements pressio.Metric.
func (m *JinModel) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	if v, ok := o.GetBool(OptJinFastIterator); ok {
		m.FastIter = v
	}
	if v, ok := o.GetInt(OptJinQuantBins); ok {
		if v < 4 || v > 1<<24 { // sz3's own range: a code is an int32, a count window spans the codes
			return fmt.Errorf("jin_model: %s out of range [4, 1<<24]: %d", OptJinQuantBins, v)
		}
		m.Bins = int(v)
	}
	return nil
}

// Options implements pressio.Metric.
func (m *JinModel) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, m.abs())
	o.Set(OptJinFastIterator, m.FastIter)
	o.Set(OptJinQuantBins, int64(m.bins()))
	return o
}

func (m *JinModel) bins() int {
	if m.Bins < 4 {
		return sz3.DefaultBins
	}
	return m.Bins
}

func (m *JinModel) abs() float64 {
	if m.Abs <= 0 {
		return 1e-4
	}
	return m.Abs
}

// BeginCompress implements pressio.Metric: runs the analytic model.
func (m *JinModel) BeginCompress(in *pressio.Data) {
	cm := codeModelPool.Get().(*codeModel)
	defer codeModelPool.Put(cm)
	cm.reset(m.abs(), m.bins())
	codes := cm.room(in.Len())
	if in.DType() == pressio.DTypeFloat32 {
		lorenzoCodes(codes, in.Float32(), in.Dims(), &cm.q, m.FastIter)
	} else {
		lorenzoCodes(codes, stats.Float64Run(in, 0, in.Len(), nil), in.Dims(), &cm.q, m.FastIter)
	}
	cm.take(codes)
	hist, outliers, n := cm.histogram(), cm.outliers, cm.n()
	r := pressio.Options{}
	if n == 0 {
		r.Set("jin_model:cr", 1.0)
		m.results = r
		return
	}
	// mean Huffman code length (the encoding-efficiency analysis), the
	// canonical table's header, and a fixed lossless-stage efficiency:
	// DEFLATE on the Huffman stream typically removes residual redundancy
	// the per-symbol analysis cannot see (run structure)
	elemBits := in.DType().Size() * 8
	headerBits := float64(hist.Len()*5*8) / float64(n)
	cr := float64(elemBits) / bitsPerValue(huffman.MeanCodeLength(hist), outliers, n, elemBits, 0.90, headerBits)
	if cr < 1 {
		cr = 1
	}
	r.Set("jin_model:cr", cr)
	r.Set("jin_model:outlier_fraction", float64(outliers)/float64(n))
	m.results = r
}

// lorenzoCodes runs the model's prediction + quantization stage over vals
// into codes: sz3's row stage, or the profiled naive iterator.
func lorenzoCodes[T stats.Float](codes []int32, vals []T, dims []int, q *sz3.Quantizer, fast bool) {
	if fast {
		sz3.CodesLorenzo(q, codes, vals, dims)
	} else {
		naiveLorenzoCodes(codes, vals, dims, q)
	}
}

// Results implements pressio.Metric.
func (m *JinModel) Results() pressio.Options { return m.results.Clone() }

// jinScheme wires the jin_model metric as a scheme. The prediction IS the
// metric value, so the predictor is the identity module.
type jinScheme struct{}

func (*jinScheme) Name() string { return "jin2022" }

func (*jinScheme) Info() core.Info {
	return core.Info{
		Method:   "Jin [5, 6]",
		Training: false,
		Sampling: false,
		BlackBox: "no",
		Goal:     "fast",
		Metrics:  "CR, Bandwidth",
		Approach: "calculation",
	}
}

// Supports implements core.Scheme: the analytic model decomposes
// prediction-based compressors; it cannot describe transform coders,
// which is why Table 2 reports N/A for zfp.
func (*jinScheme) Supports(compressor string) bool { return compressor == "sz3" }

func (*jinScheme) Metrics() []string  { return []string{"jin_model"} }
func (*jinScheme) Features() []string { return []string{"jin_model:cr"} }
func (*jinScheme) Target() string     { return "size:compression_ratio" }

func (*jinScheme) NewPredictor(string) (core.Predictor, error) {
	return &core.IdentityPredictor{}, nil
}
