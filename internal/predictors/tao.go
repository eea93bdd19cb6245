package predictors

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// Option keys of the tao_sample metric.
const (
	// OptTaoCompressor names the compressor to trial ("tao:compressor").
	OptTaoCompressor = "tao:compressor"
	// OptTaoBlocks sets how many blocks are sampled ("tao:blocks").
	OptTaoBlocks = "tao:blocks"
	// OptTaoBlockElems sets the elements per sampled block
	// ("tao:block_elems").
	OptTaoBlockElems = "tao:block_elems"
)

func init() {
	pressio.RegisterMetric("tao_sample", func() pressio.Metric { return &TaoSample{} })
	core.RegisterScheme("tao2019", func() core.Scheme { return &taoScheme{} })
}

// TaoSample is the metric plugin implementing the earliest trial-based
// estimation method (Tao 2019, expanded by Liang 2019): sample blocks of
// the input, run the real compressor on the concatenated sample, and take
// the sample's compression ratio as the estimate. Accuracy is modest, but
// the method preserves the ranking between compressors, which is all its
// original compressor-selection use case needs (paper §2.1).
type TaoSample struct {
	pressio.BaseMetric
	Compressor string
	Blocks     int
	BlockElems int
	opts       pressio.Options
	results    pressio.Options
}

// Name implements pressio.Metric.
func (*TaoSample) Name() string { return "tao_sample" }

// taoInvalidates is TaoSample's predictors:invalidate list: running a
// compressor is a runtime observation and depends on the error
// configuration.
var taoInvalidates = []string{pressio.OptAbs, pressio.InvalidateErrorDependent, pressio.InvalidateRuntime}

// Invalidates implements pressio.Metric.
func (*TaoSample) Invalidates() []string { return taoInvalidates }

// SetOptions implements pressio.Metric: all options are retained so the
// trialled compressor sees the caller's full configuration.
func (m *TaoSample) SetOptions(o pressio.Options) error {
	if m.opts == nil {
		m.opts = pressio.Options{}
	}
	m.opts.Merge(o)
	if v, ok := o.GetString(OptTaoCompressor); ok {
		m.Compressor = v
	}
	if v, ok := o.GetInt(OptTaoBlocks); ok {
		if v < 1 || v > 1024 {
			return fmt.Errorf("tao_sample: blocks %d out of range", v)
		}
		m.Blocks = int(v)
	}
	if v, ok := o.GetInt(OptTaoBlockElems); ok {
		if v < 16 {
			return fmt.Errorf("tao_sample: block_elems %d too small", v)
		}
		m.BlockElems = int(v)
	}
	return nil
}

// Options implements pressio.Metric.
func (m *TaoSample) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(OptTaoCompressor, m.compressor())
	o.Set(OptTaoBlocks, int64(m.blocks()))
	o.Set(OptTaoBlockElems, int64(m.blockElems()))
	return o
}

func (m *TaoSample) compressor() string {
	if m.Compressor == "" {
		return "sz3"
	}
	return m.Compressor
}

func (m *TaoSample) blocks() int {
	if m.Blocks <= 0 {
		return 8
	}
	return m.Blocks
}

func (m *TaoSample) blockElems() int {
	if m.BlockElems <= 0 {
		return 256 // based on compressor internals in the original design
	}
	return m.BlockElems
}

// BeginCompress implements pressio.Metric.
func (m *TaoSample) BeginCompress(in *pressio.Data) {
	r := pressio.Options{}
	n := in.Len()
	be := m.blockElems()
	nb := m.blocks()
	if n == 0 {
		r.Set("tao_sample:cr", 1.0)
		m.results = r
		return
	}
	// the sampled blocks are all of the buffer that is read; block is the
	// conversion scratch, reused (Float64Run ignores it for a float64
	// buffer, whose run it returns directly)
	var sample, block []float64
	rng := splitmix(uint64(n)*0x9e3779b9 + 7)
	for b := 0; b < nb; b++ {
		if n <= be {
			sample = append(sample, stats.Float64Run(in, 0, n, nil)...)
			break
		}
		start := int(rng() % uint64(n-be))
		block = stats.Float64Run(in, start, start+be, block)
		sample = append(sample, block...)
	}
	// trial the real compressor on the sample
	comp, err := pressio.GetCompressor(m.compressor())
	if err != nil {
		r.Set("tao_sample:error", true)
		m.results = r
		return
	}
	if m.opts != nil {
		if err := comp.SetOptions(m.opts); err != nil {
			r.Set("tao_sample:error", true)
			m.results = r
			return
		}
	}
	var buf *pressio.Data
	if in.DType() == pressio.DTypeFloat64 {
		buf = pressio.FromFloat64(sample, len(sample))
	} else {
		f := make([]float32, len(sample))
		for i, v := range sample {
			f[i] = float32(v)
		}
		buf = pressio.FromFloat32(f, len(f))
	}
	compressed, err := comp.Compress(buf)
	if err != nil {
		r.Set("tao_sample:error", true)
		m.results = r
		return
	}
	cr := float64(buf.ByteSize()) / float64(compressed.ByteSize())
	if cr < 1 {
		cr = 1
	}
	r.Set("tao_sample:cr", cr)
	r.Set("tao_sample:sampled_elems", int64(len(sample)))
	m.results = r
}

// Results implements pressio.Metric.
func (m *TaoSample) Results() pressio.Options { return m.results.Clone() }

// taoScheme wires tao_sample as a scheme with an identity predictor.
type taoScheme struct{}

func (*taoScheme) Name() string { return "tao2019" }

func (*taoScheme) Info() core.Info {
	return core.Info{
		Method:   "Tao [15]",
		Training: false,
		Sampling: true,
		BlackBox: "partial",
		Goal:     "fast",
		Metrics:  "CR",
		Approach: "trial-based",
	}
}

// Supports implements core.Scheme: trialling works for any registered
// compressor.
func (*taoScheme) Supports(compressor string) bool {
	_, err := pressio.GetCompressor(compressor)
	return err == nil
}

func (*taoScheme) Metrics() []string  { return []string{"tao_sample"} }
func (*taoScheme) Features() []string { return []string{"tao_sample:cr"} }
func (*taoScheme) Target() string     { return "size:compression_ratio" }

func (*taoScheme) NewPredictor(string) (core.Predictor, error) {
	return &core.IdentityPredictor{}, nil
}
