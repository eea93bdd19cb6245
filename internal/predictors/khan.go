package predictors

import (
	"fmt"
	"sync"

	"repro/internal/compressor/sz3"
	"repro/internal/compressor/zfp"
	"repro/internal/core"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// Option keys of the khan_surrogate metric.
const (
	// OptKhanCompressor names the compressor whose stages are modelled
	// ("khan:compressor").
	OptKhanCompressor = "khan:compressor"
	// OptKhanSampleFraction sets the fraction of the data sampled
	// ("khan:sample_fraction").
	OptKhanSampleFraction = "khan:sample_fraction"
)

func init() {
	pressio.RegisterMetric("khan_surrogate", func() pressio.Metric { return &KhanSurrogate{} })
	core.RegisterScheme("khan2023", func() core.Scheme { return &khanScheme{} })
}

// KhanSurrogate is the metric plugin implementing the SECRE approach of
// Khan 2023: model the internal stages of the compressor (prediction +
// quantization + coding for SZ-style compressors; block transform + plane
// coding for ZFP-style) but evaluate the stage models only on a tightly
// coupled sample of the data, trading accuracy for a runtime far below a
// compressor invocation.
type KhanSurrogate struct {
	pressio.BaseMetric
	Compressor string
	Abs        float64
	Fraction   float64
	results    pressio.Options
}

// Name implements pressio.Metric.
func (*KhanSurrogate) Name() string { return "khan_surrogate" }

// absDependent is the predictors:invalidate list of the surrogates that
// model a compressor at its error bound (khan_surrogate, jin_model).
var absDependent = []string{pressio.OptAbs, pressio.InvalidateErrorDependent}

// Invalidates implements pressio.Metric.
func (*KhanSurrogate) Invalidates() []string { return absDependent }

// SetOptions implements pressio.Metric.
func (m *KhanSurrogate) SetOptions(o pressio.Options) error {
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	if v, ok := o.GetString(OptKhanCompressor); ok {
		m.Compressor = v
	}
	if v, ok := o.GetFloat(OptKhanSampleFraction); ok {
		if v <= 0 || v > 1 {
			return fmt.Errorf("khan_surrogate: sample fraction %v outside (0, 1]", v)
		}
		m.Fraction = v
	}
	return nil
}

// Options implements pressio.Metric.
func (m *KhanSurrogate) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, m.abs())
	o.Set(OptKhanCompressor, m.compressor())
	o.Set(OptKhanSampleFraction, m.fraction())
	return o
}

func (m *KhanSurrogate) abs() float64 {
	if m.Abs <= 0 {
		return 1e-4
	}
	return m.Abs
}

func (m *KhanSurrogate) compressor() string {
	if m.Compressor == "" {
		return "sz3"
	}
	return m.Compressor
}

func (m *KhanSurrogate) fraction() float64 {
	if m.Fraction <= 0 || m.Fraction > 1 {
		return 0.02
	}
	return m.Fraction
}

// khanScratch is the working memory of one BeginCompress, recycled so a
// predict allocates nothing proportional to its sample: the sampled runs
// and the float64 conversion of one of them (estimateSZ's code counts are
// the pooled codeModel's).
type khanScratch struct {
	runs [khanRuns][2]int
	run  []float64
}

var khanScratchPool = sync.Pool{New: func() any { return new(khanScratch) }}

// read returns one sampled run of in as float64 (stats.Float64Run): the
// run is all of the buffer the surrogate touches.
func (sc *khanScratch) read(in *pressio.Data, run [2]int) []float64 {
	vals := stats.Float64Run(in, run[0], run[1], sc.run)
	if in.DType() != pressio.DTypeFloat64 {
		sc.run = vals // the (grown) scratch; a float64 run aliases the buffer and is not kept
	}
	return vals
}

// BeginCompress implements pressio.Metric.
func (m *KhanSurrogate) BeginCompress(in *pressio.Data) {
	sc := khanScratchPool.Get().(*khanScratch)
	defer khanScratchPool.Put(sc)
	r := pressio.Options{}
	var cr float64
	switch m.compressor() {
	case "zfp":
		cr = m.estimateZFP(in, sc)
	case "szx":
		cr = m.estimateSZX(in, sc)
	default:
		cr = m.estimateSZ(in, sc)
	}
	if cr < 1 {
		cr = 1
	}
	r.Set("khan_surrogate:cr", cr)
	m.results = r
}

// khanRuns is how many contiguous runs a sample is cut into.
const khanRuns = 16

// sampleRuns appends to out (room for khanRuns) deterministic contiguous
// runs covering ~fraction of the n elements: tightly coupled sampling,
// cache-friendly and cheap. Each run is at least minRun elements so
// block-structured stage models always see whole blocks.
func (m *KhanSurrogate) sampleRuns(n, minRun int, out [][2]int) [][2]int {
	target := int(float64(n) * m.fraction())
	if target < khanRuns {
		target = min(n, khanRuns)
	}
	runLen := target / khanRuns
	if runLen < minRun {
		runLen = minRun
	}
	if runLen < 1 {
		runLen = 1
	}
	rng := splitmix(uint64(n)*2654435761 + 12345)
	for i := 0; i < khanRuns; i++ {
		if n <= runLen {
			out = append(out, [2]int{0, n})
			break
		}
		start := int(rng() % uint64(n-runLen))
		out = append(out, [2]int{start, start + runLen})
	}
	return out
}

func splitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// estimateSZ models the SZ stages on sampled runs: 1-D Lorenzo residuals
// (each run starts from zero), quantization, and an entropy-coding estimate
// with a fixed lossless-backend efficiency. A buffer asked at enough fresh
// bounds keeps its residuals sorted (sample), and its codes are counted
// by one walk of them instead: the same counts in the same code order, so
// the same bits.
func (m *KhanSurrogate) estimateSZ(in *pressio.Data, sc *khanScratch) float64 {
	runs := m.sampleRuns(in.Len(), 16, sc.runs[:0])
	return m.estimateSZFrom(in, runs, m.sample(in, runs, sc), sc)
}

// estimateSZFrom is estimateSZ over runs, their codes counted from s, or
// through sz3.CodesLorenzo where s is nil.
func (m *KhanSurrogate) estimateSZFrom(in *pressio.Data, runs [][2]int, s *khanSample, sc *khanScratch) float64 {
	cm := codeModelPool.Get().(*codeModel)
	defer codeModelPool.Put(cm)
	cm.reset(m.abs(), sz3.DefaultBins)
	khanAnswers.all.Add(1)
	var n, outliers uint64
	var bitsPerCode float64
	if s != nil {
		khanAnswers.fromSample.Add(1)
		outliers, n = s.count(cm), uint64(len(s.res))+s.nans
		bitsPerCode = stats.EntropyFromCounts(cm.counts)
	} else {
		for _, run := range runs {
			vals := sc.read(in, run)
			codes := cm.room(len(vals))
			sz3.CodesLorenzo(&cm.q, codes, vals, []int{len(vals)})
			cm.take(codes)
		}
		n, outliers, bitsPerCode = cm.n(), cm.outliers, cm.entropy()
	}
	if n == 0 {
		return 1
	}
	elemBits := in.DType().Size() * 8
	est := bitsPerValue(bitsPerCode, outliers, n, elemBits, 0.95, 0)
	return float64(elemBits) / est
}

// estimateZFP models the ZFP stages on sampled 4^d blocks using the
// compressor's own block-bit estimator.
func (m *KhanSurrogate) estimateZFP(in *pressio.Data, sc *khanScratch) float64 {
	elemBits := in.DType().Size() * 8
	nd := len(in.Dims())
	if nd > 3 {
		nd = 3
	}
	if nd < 1 {
		return 1
	}
	blockElems := 1
	for i := 0; i < nd; i++ {
		blockElems *= 4
	}
	// sample runs, reshaped as flat blocks: a deliberate approximation —
	// the surrogate trades blocking fidelity for speed
	var totalBits float64
	var totalElems int
	for _, run := range m.sampleRuns(in.Len(), blockElems, sc.runs[:0]) {
		vals := sc.read(in, run)
		for start := 0; start+blockElems <= len(vals); start += blockElems {
			totalBits += zfp.EstimateBlockBits(vals[start:start+blockElems], nd, m.abs())
			totalElems += blockElems
		}
	}
	if totalElems == 0 {
		return 1
	}
	est := totalBits / float64(totalElems)
	if est <= 0 {
		est = 0.01
	}
	return float64(elemBits) / est
}

// estimateSZX models the SZx constant-block detector on sampled runs.
func (m *KhanSurrogate) estimateSZX(in *pressio.Data, sc *khanScratch) float64 {
	elemBits := in.DType().Size() * 8
	abs := m.abs()
	const blockSize = 128
	var constant, totalBlocks int
	for _, run := range m.sampleRuns(in.Len(), blockSize, sc.runs[:0]) {
		vals := sc.read(in, run)
		for start := 0; start+blockSize <= len(vals); start += blockSize {
			mn, mx := vals[start], vals[start]
			for _, v := range vals[start+1 : start+blockSize] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			totalBlocks++
			if mx-mn <= 2*abs {
				constant++
			}
		}
	}
	if totalBlocks == 0 {
		return 1
	}
	cFrac := float64(constant) / float64(totalBlocks)
	bitsPerVal := cFrac*(64.0/blockSize) + (1-cFrac)*float64(elemBits)
	return float64(elemBits) / (bitsPerVal + 1.0/blockSize)
}

// Results implements pressio.Metric.
func (m *KhanSurrogate) Results() pressio.Options { return m.results.Clone() }

// khanScheme wires khan_surrogate as a scheme with an identity predictor.
type khanScheme struct{}

func (*khanScheme) Name() string { return "khan2023" }

func (*khanScheme) Info() core.Info {
	return core.Info{
		Method:   "Khan [7]",
		Training: false,
		Sampling: true,
		BlackBox: "no",
		Goal:     "fast",
		Metrics:  "CR",
		Approach: "calculation",
	}
}

func (*khanScheme) Supports(compressor string) bool {
	switch compressor {
	case "sz3", "zfp", "szx":
		return true
	}
	return false
}

func (*khanScheme) Metrics() []string  { return []string{"khan_surrogate"} }
func (*khanScheme) Features() []string { return []string{"khan_surrogate:cr"} }
func (*khanScheme) Target() string     { return "size:compression_ratio" }

func (*khanScheme) NewPredictor(compressor string) (core.Predictor, error) {
	return &core.IdentityPredictor{}, nil
}
