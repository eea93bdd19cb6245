package predictors

import (
	"math"

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
		return 65536
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
	vals := stats.Float64Of(in)
	dims := in.Dims()
	var it ndIterator
	if m.FastIter {
		it = newFastIterator(dims)
	} else {
		it = newNaiveIterator(dims)
	}
	hist, outliers, n := lorenzoCodeHistogram(vals, dims, m.abs(), m.bins(), it, m.FastIter)
	r := pressio.Options{}
	if n == 0 {
		r.Set("jin_model:cr", 1.0)
		m.results = r
		return
	}
	cr := crFromCodeHistogram(hist, outliers, n, in.DType().Size()*8)
	r.Set("jin_model:cr", cr)
	r.Set("jin_model:outlier_fraction", float64(outliers)/float64(n))
	m.results = r
}

// Results implements pressio.Metric.
func (m *JinModel) Results() pressio.Options { return m.results.Clone() }

// lorenzoStrides computes element strides of dims.
func lorenzoStrides(dims []int) []int {
	str := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		str[i] = acc
		acc *= dims[i]
	}
	return str
}

// lorenzoCodeHistogram runs the prediction + quantization stages over the
// data (predicting from original neighbours, as the analytic model does)
// and histograms the quantization codes. The fast flag controls whether
// neighbour addresses come from precomputed offsets or are re-derived
// through per-term coordinate allocation, mirroring the two C++
// implementations the paper compares.
func lorenzoCodeHistogram(vals []float64, dims []int, abs float64, bins int, it ndIterator, fast bool) (hist huffman.Histogram, outliers uint64, n uint64) {
	str := lorenzoStrides(dims)
	nd := len(dims)
	step := 2 * abs
	half := float64(bins / 2)
	counts := make([]uint64, bins) // code c stored at c + bins/2
	for {
		idx, ok := it.Next()
		if !ok {
			break
		}
		coords := it.Coords()
		var pred float64
		// first-order Lorenzo over original values
		for s := 1; s < 1<<nd; s++ {
			inRange := true
			var off int
			for d := 0; d < nd; d++ {
				if s&(1<<d) != 0 {
					if coords[d] < 1 {
						inRange = false
						break
					}
					off += str[d]
				}
			}
			if !inRange {
				continue
			}
			if popcount(uint(s))%2 == 1 {
				pred += vals[idx-off]
			} else {
				pred -= vals[idx-off]
			}
		}
		diff := vals[idx] - pred
		c := math.Round(diff / step)
		n++
		if math.Abs(c) >= half {
			outliers++
			continue
		}
		counts[int(c)+bins/2]++
	}
	return huffman.DenseHistogram(int32(-(bins / 2)), counts), outliers, n
}

func popcount(x uint) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// crFromCodeHistogram converts the quantization-code distribution to a
// compression-ratio estimate: mean Huffman code length (the encoding-
// efficiency analysis), the outlier escape cost, the code-table header,
// and a lossless-stage efficiency factor.
func crFromCodeHistogram(hist huffman.Histogram, outliers, n uint64, elemBits int) float64 {
	meanBits := huffman.MeanCodeLength(hist)
	outFrac := float64(outliers) / float64(n)
	quantFrac := 1 - outFrac
	// escape symbol + exact value for outliers; canonical table header
	headerBits := float64(hist.Len()*5*8) / float64(n)
	// DEFLATE on the Huffman stream typically removes residual
	// redundancy the per-symbol analysis cannot see (run structure);
	// the model uses a fixed stage-efficiency factor.
	const losslessEfficiency = 0.90
	estBits := (quantFrac*meanBits+outFrac*float64(elemBits+1))*losslessEfficiency + headerBits
	if estBits <= 0 {
		estBits = 0.01
	}
	cr := float64(elemBits) / estBits
	if cr < 1 {
		cr = 1
	}
	return cr
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
