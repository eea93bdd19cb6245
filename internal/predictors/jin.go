package predictors

import (
	"repro/internal/compressor/sz3"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// Option keys of the jin_model metric.
const (
	// OptJinFastIterator selects the optimized iterator instead of the
	// faithful naive one ("jin:fast_iterator") — the ablation of §6.
	OptJinFastIterator = "jin:fast_iterator"
	// OptJinQuantBins sets the modelled quantizer bin budget.
	OptJinQuantBins = "jin:quant_bins"
)

func init() {
	pressio.RegisterMetric("jin_model", func() pressio.Metric { return &JinModel{} })
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

// Configuration implements pressio.Metric: the model depends on the error
// bound, and it reads compressor internals (not black-box).
func (*JinModel) Configuration() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.CfgInvalidate, []string{pressio.OptAbs, pressio.InvalidateErrorDependent})
	o.Set("jin_model:black_box", false)
	return o
}

// SetOptions implements pressio.Metric.
func (m *JinModel) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	if v, ok := o.GetBool(OptJinFastIterator); ok {
		m.FastIter = v
	}
	if v, ok := o.GetInt(OptJinQuantBins); ok && v >= 4 {
		m.Bins = int(v)
	}
	return nil
}

// Options implements pressio.Metric.
func (m *JinModel) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, m.Abs)
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
	dims := in.Dims()
	var it ndIterator
	if m.FastIter {
		it = newFastIterator(dims)
	} else {
		it = newNaiveIterator(dims)
	}
	hist, outliers, n := lorenzoCodeHistogram(stats.Float64Of(in), dims, m.abs(), m.bins(), it)
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

// Results implements pressio.Metric.
func (m *JinModel) Results() pressio.Options { return m.results.Clone() }

// lorenzoCodeHistogram runs the prediction + quantization stages over every
// element it yields — sz3's first-order Lorenzo terms, read over original
// neighbours as the analytic model does, not reconstructed ones — and
// histograms the quantization codes of the n elements visited.
func lorenzoCodeHistogram(vals []float64, dims []int, abs float64, bins int, it ndIterator) (hist huffman.Histogram, outliers, n uint64) {
	cm := codeModelPool.Get().(*codeModel)
	defer codeModelPool.Put(cm)
	cm.reset(abs, bins)
	cm.expect(len(vals)) // every element is visited
	terms := sz3.LorenzoTerms(dims)
	for {
		idx, ok := it.Next()
		if !ok {
			break
		}
		var have uint32 // the dimensions with a neighbour behind this element
		for d, c := range it.Coords() {
			if c >= 1 {
				have |= 1 << d
			}
		}
		var pred float64
		for _, t := range terms {
			if t.Mask&have == t.Mask {
				pred += t.Sign * vals[idx-t.Offset]
			}
		}
		cm.count(cm.q.Code(vals[idx] - pred))
	}
	hist, outliers, n = cm.histogram(), cm.outliers, cm.n()
	return hist, outliers, n
}

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
