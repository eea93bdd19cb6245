package predictors

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/compressor/zfp"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// The three references below are the sampling plugins as they were before
// they read their runs through stats.Float64Run: each opens with a
// float64 copy of the WHOLE buffer and slices its sample out of it. They
// live here only, as what TestSampledPluginsMatchWholeBufferReference
// compares the plugins against.

func referenceKhan(m *KhanSurrogate, in *pressio.Data) pressio.Options {
	vals := stats.Float64Run(in, 0, in.Len(), nil)
	elemBits := in.DType().Size() * 8
	abs := m.abs()
	var cr float64
	switch m.compressor() {
	case "zfp":
		cr = 1
		nd := min(len(in.Dims()), 3)
		if nd < 1 {
			break
		}
		blockElems := 1 << (2 * nd)
		var totalBits float64
		var totalElems int
		block := make([]float64, blockElems)
		for _, run := range m.sampleRuns(len(vals), blockElems, nil) {
			for start := run[0]; start+blockElems <= run[1]; start += blockElems {
				copy(block, vals[start:start+blockElems])
				totalBits += zfp.EstimateBlockBits(block, nd, abs)
				totalElems += blockElems
			}
		}
		if totalElems == 0 {
			break
		}
		est := totalBits / float64(totalElems)
		if est <= 0 {
			est = 0.01
		}
		cr = float64(elemBits) / est
	case "szx":
		const blockSize = 128
		var constant, totalBlocks int
		for _, run := range m.sampleRuns(len(vals), blockSize, nil) {
			for start := run[0]; start+blockSize <= run[1]; start += blockSize {
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
		cr = 1
		if totalBlocks > 0 {
			cFrac := float64(constant) / float64(totalBlocks)
			bitsPerVal := cFrac*(64.0/blockSize) + (1-cFrac)*float64(elemBits)
			cr = float64(elemBits) / (bitsPerVal + 1.0/blockSize)
		}
	default:
		step := 2 * abs
		runs := m.sampleRuns(len(vals), 16, nil)
		sampled := 0
		for _, run := range runs {
			sampled += run[1] - run[0]
		}
		cr = 1
		if sampled == 0 {
			break
		}
		codes := make([]int32, 0, sampled)
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		for _, run := range runs {
			prev := 0.0
			for i := run[0]; i < run[1]; i++ {
				diff := vals[i] - prev
				prev = vals[i]
				c := math.Round(diff / step)
				if !(math.Abs(c) < 32768) {
					continue
				}
				k := int32(c)
				codes = append(codes, k)
				lo, hi = min(lo, k), max(hi, k)
			}
		}
		var counts []uint64
		if len(codes) > 0 {
			counts = make([]uint64, int(hi-lo)+1)
			for _, k := range codes {
				counts[k-lo]++
			}
		}
		bitsPerSym := stats.EntropyFromCounts(counts)
		outFrac := float64(sampled-len(codes)) / float64(sampled)
		est := (1-outFrac)*bitsPerSym + outFrac*float64(elemBits+1)
		est *= 0.95
		if est <= 0 {
			est = 0.01
		}
		cr = float64(elemBits) / est
	}
	r := pressio.Options{}
	r.Set("khan_surrogate:cr", math.Max(cr, 1))
	return r
}

func referenceTao(m *TaoSample, in *pressio.Data) pressio.Options {
	r := pressio.Options{}
	vals := stats.Float64Run(in, 0, in.Len(), nil)
	n := len(vals)
	be := m.blockElems()
	if n == 0 {
		r.Set("tao_sample:cr", 1.0)
		return r
	}
	var sample []float64
	rng := splitmix(uint64(n)*0x9e3779b9 + 7)
	for b := 0; b < m.blocks(); b++ {
		if n <= be {
			sample = append(sample, vals...)
			break
		}
		start := int(rng() % uint64(n-be))
		sample = append(sample, vals[start:start+be]...)
	}
	comp, err := pressio.GetCompressor(m.compressor())
	if err != nil {
		panic(err)
	}
	if err := comp.SetOptions(m.opts); err != nil {
		panic(err)
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
		panic(err)
	}
	r.Set("tao_sample:cr", math.Max(float64(buf.ByteSize())/float64(compressed.ByteSize()), 1))
	r.Set("tao_sample:sampled_elems", int64(len(sample)))
	return r
}

func referenceZperf(m *ZperfModel, in *pressio.Data) pressio.Options {
	vals := stats.Float64Run(in, 0, in.Len(), nil)
	elemBits := in.DType().Size() * 8
	n := len(vals)
	sampleLen := int(float64(n) * m.fraction())
	if sampleLen < 64 {
		sampleLen = min(n, 64)
	}
	hist, outliers := m.residualHistogram(vals[:sampleLen])
	outFrac := float64(outliers) / float64(uint64(sampleLen))
	est := (1-outFrac)*huffman.MeanCodeLength(hist) + outFrac*float64(elemBits+1)
	est *= 0.90
	if est <= 0 {
		est = 0.01
	}
	r := pressio.Options{}
	r.Set("zperf_model:cr", math.Max(float64(elemBits)/est, 1))
	r.Set("zperf_model:bits_per_value", est)
	return r
}

// sameResults compares two result sets key by key, floats by their bits.
func sameResults(a, b pressio.Options) bool {
	if len(a.Keys()) != len(b.Keys()) {
		return false
	}
	for _, k := range a.Keys() {
		fa, isFloat := a[k].(float64)
		fb, _ := b[k].(float64)
		if isFloat && math.Float64bits(fa) != math.Float64bits(fb) || !isFloat && a[k] != b[k] {
			return false
		}
	}
	return true
}

// sampledBuffers is one signal at several shapes and both float widths:
// smooth with a step, and — often enough that every sample meets them —
// spikes that quantize to outliers and NaNs. The 3-element buffer is
// shorter than any plugin's run or block.
func sampledBuffers() map[string]*pressio.Data {
	signal := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 40*math.Sin(float64(i)/17) + float64(i%7)*0.013
			switch {
			case i%97 == 50:
				v[i] = 1e9
			case i%199 == 100:
				v[i] = math.NaN()
			case i > n/2:
				v[i] += 3
			}
		}
		return v
	}
	out := map[string]*pressio.Data{}
	for _, dims := range [][]int{{3}, {200}, {40000}, {24, 40, 48}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		v := signal(n)
		f := make([]float32, n)
		for i := range v {
			f[i] = float32(v[i])
		}
		out[fmt.Sprintf("f64%v", dims)] = pressio.FromFloat64(v, dims...)
		out[fmt.Sprintf("f32%v", dims)] = pressio.FromFloat32(f, dims...)
	}
	return out
}

// TestSampledPluginsMatchWholeBufferReference: reading only the sampled
// runs changes what a sampling plugin touches, never what it answers —
// every result is bit-identical to slicing the sample out of the
// whole-buffer float64 copy.
func TestSampledPluginsMatchWholeBufferReference(t *testing.T) {
	for name, in := range sampledBuffers() {
		for _, abs := range []float64{1e-6, 1e-4, 0.5} {
			opts := pressio.Options{}
			opts.Set(pressio.OptAbs, abs)
			for _, comp := range []string{"sz3", "zfp", "szx"} {
				m := &KhanSurrogate{}
				opts.Set(OptKhanCompressor, comp)
				if err := m.SetOptions(opts); err != nil {
					t.Fatal(err)
				}
				want := referenceKhan(m, in)
				// twice: the second call runs on recycled scratch
				for call := 0; call < 2; call++ {
					m.BeginCompress(in)
					if got := m.Results(); !sameResults(got, want) {
						t.Errorf("khan/%s %s abs=%g call %d: %v, reference %v", comp, name, abs, call, got, want)
					}
				}
			}
			tao := &TaoSample{}
			if err := tao.SetOptions(opts); err != nil {
				t.Fatal(err)
			}
			tao.BeginCompress(in)
			if got, want := tao.Results(), referenceTao(tao, in); !sameResults(got, want) {
				t.Errorf("tao_sample %s abs=%g: %v, reference %v", name, abs, got, want)
			}
			zp := &ZperfModel{}
			if err := zp.SetOptions(opts); err != nil {
				t.Fatal(err)
			}
			zp.BeginCompress(in)
			if got, want := zp.Results(), referenceZperf(zp, in); !sameResults(got, want) {
				t.Errorf("zperf_model %s abs=%g: %v, reference %v", name, abs, got, want)
			}
		}
	}
}

// TestKhanReadsOnlyItsSample: the surrogate's cost is its 2 % sample, not
// the cell. A float64 copy of a 64x64x96 float32 buffer alone is twice
// the buffer's bytes; a BeginCompress on a buffer never seen before must
// allocate less than half of them, at the default bound and at a tight
// one (where the code counts span the widest window).
func TestKhanReadsOnlyItsSample(t *testing.T) {
	for _, abs := range []float64{1e-4, 1e-6} {
		in := pressio.NewFloat32(64, 64, 96)
		for i := range in.Float32() {
			in.Float32()[i] = float32(math.Sin(float64(i) / 29))
		}
		m := &KhanSurrogate{Abs: abs}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.BeginCompress(in)
		runtime.ReadMemStats(&after)
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(in.ByteSize()/2)
		if got >= limit {
			t.Errorf("abs=%g: BeginCompress allocated %d bytes, want < %d (half the buffer)", abs, got, limit)
		}
	}
}

// TestRahmanAgnosticChainBuildsNoView: rahman2023's error-agnostic
// metrics (stat, spatial, entropy) read the typed buffer in place. On a
// float32 buffer never seen before they must allocate less than half its
// bytes: a float64 copy alone is twice them.
func TestRahmanAgnosticChainBuildsNoView(t *testing.T) {
	scheme, err := core.GetScheme("rahman2023")
	if err != nil {
		t.Fatal(err)
	}
	var chain []pressio.Metric
	for _, name := range scheme.Metrics() {
		if m, _ := pressio.GetMetric(name); core.StageOf(m) == core.StageErrorAgnostic {
			chain = append(chain, m)
		}
	}
	if len(chain) != 3 {
		t.Fatalf("rahman2023 has %d error-agnostic metrics, want stat, spatial and entropy", len(chain))
	}
	in := pressio.NewFloat32(32, 32, 64)
	for i := range in.Float32() {
		in.Float32()[i] = float32(math.Sin(float64(i) / 29))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range chain {
		m.BeginCompress(in)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(in.ByteSize()/2); got >= limit {
		t.Errorf("the chain allocated %d bytes, want < %d (half the buffer)", got, limit)
	}
}
