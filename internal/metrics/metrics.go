// Package metrics implements the LibPressio metric plugins used by the
// prediction schemes, each tagged with the predictors:invalidate metadata
// the paper introduces (§4.2): error-agnostic data statistics (moments,
// entropy, variogram, SVD truncation, spatial features, coding gain),
// error-dependent observations (quantized entropy, general distortion,
// reconstruction error), and runtime/nondeterministic observations
// (sizes and timings from running the compressor).
package metrics

import (
	"math"

	"repro/internal/pressio"
	"repro/internal/stats"
)

func init() {
	pressio.RegisterMetric("stat", func() pressio.Metric { return &Stat{} })
	pressio.RegisterMetric("entropy", func() pressio.Metric { return &Entropy{} })
	pressio.RegisterMetric("quantized_entropy", func() pressio.Metric { return &QuantizedEntropy{} })
	pressio.RegisterMetric("variogram", func() pressio.Metric { return &Variogram{} })
	pressio.RegisterMetric("svd_trunc", func() pressio.Metric { return &SVDTrunc{} })
	pressio.RegisterMetric("spatial", func() pressio.Metric { return &Spatial{} })
	pressio.RegisterMetric("distortion", func() pressio.Metric { return &Distortion{} })
	pressio.RegisterMetric("size", func() pressio.Metric { return &Size{} })
	pressio.RegisterMetric("error_stat", func() pressio.Metric { return &ErrorStat{} })
}

func invalidate(keys ...string) pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.CfgInvalidate, keys)
	return o
}

// Stat observes error-agnostic moments of the input: min, max, range,
// mean, std, and the exact-zero sparsity fraction (the signal behind
// FXRZ's sparsity correction factor).
type Stat struct {
	pressio.BaseMetric
	results pressio.Options
}

// Name implements pressio.Metric.
func (*Stat) Name() string { return "stat" }

// Configuration implements pressio.Metric.
func (*Stat) Configuration() pressio.Options {
	return invalidate(pressio.InvalidateErrorAgnostic)
}

// BeginCompress implements pressio.Metric. All moments come from the
// fused single-pass summary shared with every other metric observing the
// same buffer, so a chain of metrics reads the data once.
func (m *Stat) BeginCompress(in *pressio.Data) {
	s := stats.SummaryOf(in, 0, 0)
	r := pressio.Options{}
	r.Set("stat:min", s.Min)
	r.Set("stat:max", s.Max)
	r.Set("stat:range", s.Range())
	r.Set("stat:mean", s.Mean)
	r.Set("stat:std", s.Std)
	r.Set("stat:sparsity", s.Sparsity())
	r.Set("stat:n", int64(s.N))
	m.results = r
}

// Results implements pressio.Metric.
func (m *Stat) Results() pressio.Options { return m.results.Clone() }

// Entropy observes the error-agnostic Shannon entropy of a fixed-width
// histogram of the values.
type Entropy struct {
	pressio.BaseMetric
	Bins    int
	results pressio.Options
}

// Name implements pressio.Metric.
func (*Entropy) Name() string { return "entropy" }

// Configuration implements pressio.Metric.
func (*Entropy) Configuration() pressio.Options {
	return invalidate(pressio.InvalidateErrorAgnostic)
}

// SetOptions implements pressio.Metric.
func (m *Entropy) SetOptions(o pressio.Options) error {
	if v, ok := o.GetInt("entropy:bins"); ok && v > 1 {
		m.Bins = int(v)
	}
	return nil
}

// Options implements pressio.Metric.
func (m *Entropy) Options() pressio.Options {
	o := pressio.Options{}
	o.Set("entropy:bins", int64(m.bins()))
	return o
}

func (m *Entropy) bins() int {
	if m.Bins <= 1 {
		return 4096
	}
	return m.Bins
}

// BeginCompress implements pressio.Metric. The histogram rides on the
// shared summary's second sweep instead of a dedicated pass.
func (m *Entropy) BeginCompress(in *pressio.Data) {
	s := stats.SummaryOf(in, m.bins(), 0)
	r := pressio.Options{}
	r.Set("entropy:shannon", s.Entropy())
	m.results = r
}

// Results implements pressio.Metric.
func (m *Entropy) Results() pressio.Options { return m.results.Clone() }

// QuantizedEntropy observes the entropy after quantization at the active
// absolute error bound — error-dependent by construction (Krasowska 2021).
type QuantizedEntropy struct {
	pressio.BaseMetric
	Abs     float64
	results pressio.Options
}

// Name implements pressio.Metric.
func (*QuantizedEntropy) Name() string { return "quantized_entropy" }

// Configuration implements pressio.Metric.
func (*QuantizedEntropy) Configuration() pressio.Options {
	return invalidate(pressio.OptAbs, pressio.InvalidateErrorDependent)
}

// SetOptions implements pressio.Metric.
func (m *QuantizedEntropy) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	return nil
}

// Options implements pressio.Metric.
func (m *QuantizedEntropy) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, m.Abs)
	return o
}

// BeginCompress implements pressio.Metric. The quantized histogram is a
// single sweep over the native element type (no float64 copy), with the
// key range bounded by the shared summary's min/max.
func (m *QuantizedEntropy) BeginCompress(in *pressio.Data) {
	r := pressio.Options{}
	r.Set("quantized_entropy:bits", stats.QuantizedEntropyOf(in, m.Abs))
	m.results = r
}

// Results implements pressio.Metric.
func (m *QuantizedEntropy) Results() pressio.Options { return m.results.Clone() }

// Variogram observes the error-agnostic small-lag semivariogram
// (Krasowska 2021's spatial statistic).
type Variogram struct {
	pressio.BaseMetric
	MaxLag  int
	results pressio.Options
}

// Name implements pressio.Metric.
func (*Variogram) Name() string { return "variogram" }

// Configuration implements pressio.Metric.
func (*Variogram) Configuration() pressio.Options {
	return invalidate(pressio.InvalidateErrorAgnostic)
}

func (m *Variogram) maxLag() int {
	if m.MaxLag <= 0 {
		return 4
	}
	return m.MaxLag
}

// BeginCompress implements pressio.Metric.
func (m *Variogram) BeginCompress(in *pressio.Data) {
	xs := stats.Float64Of(in)
	g := stats.Variogram(xs, in.Dims(), m.maxLag())
	r := pressio.Options{}
	r.Set("variogram:gamma1", g[0])
	if len(g) > 1 {
		r.Set("variogram:gamma2", g[1])
	}
	// slope of the first lags, normalized: captures decorrelation speed
	if len(g) > 1 && g[0] > 0 {
		r.Set("variogram:slope", (g[len(g)-1]-g[0])/(float64(len(g)-1)*g[0]))
	} else {
		r.Set("variogram:slope", 0.0)
	}
	m.results = r
}

// Results implements pressio.Metric.
func (m *Variogram) Results() pressio.Options { return m.results.Clone() }

// SVDTrunc observes the error-agnostic SVD truncation rank fraction
// (Underwood 2023). It is deliberately the most expensive metric, as in
// the paper (§6 reports ~771 ms against ~43 ms for the cheap features).
type SVDTrunc struct {
	pressio.BaseMetric
	Tau     float64
	results pressio.Options
}

// Name implements pressio.Metric.
func (*SVDTrunc) Name() string { return "svd_trunc" }

// Configuration implements pressio.Metric.
func (*SVDTrunc) Configuration() pressio.Options {
	// the randomized SVD implementations the paper mentions are also
	// nondeterministic; our Jacobi solver is deterministic but keeps the
	// class label so schedulers treat it equivalently
	return invalidate(pressio.InvalidateErrorAgnostic)
}

func (m *SVDTrunc) tau() float64 {
	if m.Tau <= 0 || m.Tau >= 1 {
		return 0.99
	}
	return m.Tau
}

// BeginCompress implements pressio.Metric.
func (m *SVDTrunc) BeginCompress(in *pressio.Data) {
	xs := stats.Float64Of(in)
	rank, frac := stats.SVDTruncation(xs, in.Dims(), m.tau())
	r := pressio.Options{}
	r.Set("svd_trunc:rank", int64(rank))
	r.Set("svd_trunc:fraction", frac)
	m.results = r
}

// Results implements pressio.Metric.
func (m *SVDTrunc) Results() pressio.Options { return m.results.Clone() }

// Spatial observes Ganguli 2023's error-agnostic trio: spatial
// correlation, spatial diversity, and spatial smoothness, plus coding
// gain.
type Spatial struct {
	pressio.BaseMetric
	results pressio.Options
}

// Name implements pressio.Metric.
func (*Spatial) Name() string { return "spatial" }

// Configuration implements pressio.Metric.
func (*Spatial) Configuration() pressio.Options {
	return invalidate(pressio.InvalidateErrorAgnostic)
}

// BeginCompress implements pressio.Metric.
func (m *Spatial) BeginCompress(in *pressio.Data) {
	xs := stats.Float64Of(in)
	r := pressio.Options{}
	r.Set("spatial:correlation", stats.SpatialCorrelation(xs, in.Dims()))
	smoothness, gain := stats.SmoothnessAndCodingGain(xs, in.Dims())
	r.Set("spatial:smoothness", smoothness)
	r.Set("spatial:diversity", stats.SpatialDiversity(xs, in.Dims(), 64))
	r.Set("spatial:coding_gain", gain)
	m.results = r
}

// Results implements pressio.Metric.
func (m *Spatial) Results() pressio.Options { return m.results.Clone() }

// Distortion observes the error-dependent general-distortion feature:
// log2(range / (2·abs)).
type Distortion struct {
	pressio.BaseMetric
	Abs     float64
	results pressio.Options
}

// Name implements pressio.Metric.
func (*Distortion) Name() string { return "distortion" }

// Configuration implements pressio.Metric.
func (*Distortion) Configuration() pressio.Options {
	return invalidate(pressio.OptAbs, pressio.InvalidateErrorDependent)
}

// SetOptions implements pressio.Metric.
func (m *Distortion) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	return nil
}

// Options implements pressio.Metric.
func (m *Distortion) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, m.Abs)
	return o
}

// BeginCompress implements pressio.Metric.
func (m *Distortion) BeginCompress(in *pressio.Data) {
	s := stats.SummaryOf(in, 0, 0)
	r := pressio.Options{}
	r.Set("distortion:general", stats.GeneralDistortion(s.Range(), m.Abs))
	r.Set("distortion:abs", m.Abs)
	m.results = r
}

// Results implements pressio.Metric.
func (m *Distortion) Results() pressio.Options { return m.results.Clone() }

// Size observes the compressed size and compression ratio — the training
// target of every CR prediction scheme. Running the compressor is a
// runtime observation, so it carries the runtime invalidation class in
// addition to error dependence.
type Size struct {
	pressio.BaseMetric
	results pressio.Options
}

// Name implements pressio.Metric.
func (*Size) Name() string { return "size" }

// Configuration implements pressio.Metric.
func (*Size) Configuration() pressio.Options {
	return invalidate(pressio.InvalidateErrorDependent, pressio.InvalidateRuntime)
}

// EndCompress implements pressio.Metric.
func (m *Size) EndCompress(in, compressed *pressio.Data, err error) {
	r := pressio.Options{}
	if err != nil || compressed == nil {
		r.Set("size:error", true)
		m.results = r
		return
	}
	r.Set("size:uncompressed", int64(in.ByteSize()))
	r.Set("size:compressed", int64(compressed.ByteSize()))
	cr := float64(in.ByteSize()) / float64(compressed.ByteSize())
	r.Set("size:compression_ratio", cr)
	r.Set("size:bit_rate", float64(compressed.ByteSize()*8)/float64(in.Len()))
	m.results = r
}

// Results implements pressio.Metric.
func (m *Size) Results() pressio.Options { return m.results.Clone() }

// ErrorStat observes reconstruction error statistics after decompression:
// max absolute error, MSE, and PSNR. Error-dependent by definition.
type ErrorStat struct {
	pressio.BaseMetric
	input   *pressio.Data
	results pressio.Options
}

// Name implements pressio.Metric.
func (*ErrorStat) Name() string { return "error_stat" }

// Configuration implements pressio.Metric.
func (*ErrorStat) Configuration() pressio.Options {
	return invalidate(pressio.InvalidateErrorDependent)
}

// BeginCompress implements pressio.Metric: retains the input for later
// comparison, as the C++ error_stat module does.
func (m *ErrorStat) BeginCompress(in *pressio.Data) { m.input = in }

// EndDecompress implements pressio.Metric.
func (m *ErrorStat) EndDecompress(_, out *pressio.Data, err error) {
	r := pressio.Options{}
	if err != nil || out == nil || m.input == nil || out.Len() != m.input.Len() {
		r.Set("error_stat:error", true)
		m.results = r
		return
	}
	var maxErr, sse float64
	n := m.input.Len()
	for i := 0; i < n; i++ {
		e := math.Abs(m.input.At(i) - out.At(i))
		if e > maxErr {
			maxErr = e
		}
		sse += e * e
	}
	mse := sse / float64(n)
	lo, hi := m.input.Range()
	r.Set("error_stat:max_error", maxErr)
	r.Set("error_stat:mse", mse)
	if mse > 0 && hi > lo {
		r.Set("error_stat:psnr", 20*math.Log10(hi-lo)-10*math.Log10(mse))
	} else {
		r.Set("error_stat:psnr", math.Inf(1))
	}
	m.results = r
}

// Results implements pressio.Metric.
func (m *ErrorStat) Results() pressio.Options { return m.results.Clone() }
