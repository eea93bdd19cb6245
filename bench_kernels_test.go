package repro

// Kernel microbenchmarks backing the BENCH_kernels.json regression gate
// (make bench-baseline / make bench-check). Each compressor benchmark is
// one (de)compression on the caller's goroutine, the way a bench queue
// worker or a predictd pool slot runs it; the gate fails when one
// regresses by more than 10% in ns/op or allocs/op. The metrics
// benchmarks pin the fused single-pass feature extraction against the
// per-metric multi-pass chain it replaced.

import (
	"testing"

	"repro/internal/compressor/sz3"
	"repro/internal/huffman"
	"repro/internal/hurricane"
	"repro/internal/pressio"
	"repro/internal/stats"
)

func kernelOpts(abs float64) pressio.Options {
	o := pressio.Options{}
	o.Set(pressio.OptAbs, abs)
	return o
}

func benchmarkKernelCompress(b *testing.B, name string) {
	data := benchField(b, "TC", 24)
	comp, err := pressio.GetCompressor(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := comp.SetOptions(kernelOpts(1e-4)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(data.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkKernelDecompress(b *testing.B, name string) {
	data := benchField(b, "TC", 24)
	comp, err := pressio.GetCompressor(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := comp.SetOptions(kernelOpts(1e-4)); err != nil {
		b.Fatal(err)
	}
	compressed, err := comp.Compress(data)
	if err != nil {
		b.Fatal(err)
	}
	out := pressio.New(data.DType(), data.Dims()...)
	b.SetBytes(int64(data.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comp.Decompress(compressed, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSZ3Compress(b *testing.B) { benchmarkKernelCompress(b, "sz3") }

func BenchmarkKernelSZ3Decompress(b *testing.B) { benchmarkKernelDecompress(b, "sz3") }

func BenchmarkKernelZFPCompress(b *testing.B) { benchmarkKernelCompress(b, "zfp") }

func BenchmarkKernelZFPDecompress(b *testing.B) { benchmarkKernelDecompress(b, "zfp") }

func BenchmarkKernelSZXCompress(b *testing.B) { benchmarkKernelCompress(b, "szx") }

func BenchmarkKernelSZXDecompress(b *testing.B) { benchmarkKernelDecompress(b, "szx") }

// BenchmarkKernelHuffman pins the entropy-coding stage alone on the two
// shapes sz3 hands it. The narrow stream is a loose bound's: a 7-symbol
// bulk and a 1024-symbol tail, where the per-element loops are the cost.
// The wide one is a tight bound's on a turbulent field — the real Lorenzo
// codes of hurricane "U" at Table 2's tight bound, abs 1e-6: tens of
// thousands of distinct symbols and the outlier sentinel — where building
// the table is.
func BenchmarkKernelHuffman(b *testing.B) {
	data := benchField(b, "TC", 24)
	n := data.Len()
	codes := make([]int32, n)
	state := uint64(1)
	for i := range codes {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		// geometric-ish code distribution centred at zero
		v := int32(state%7) - 3
		if state%64 == 0 {
			v = int32(state%1024) - 512
		}
		codes[i] = v
	}
	u := benchField(b, "U", 24)
	q := &sz3.Quantizer{Abs: 1e-6, Bins: sz3.DefaultBins, DType: u.DType()}
	wide := make([]int32, u.Len())
	sz3.PredictQuantizeLorenzo(wide, make([]float64, u.Len()), stats.Float64Of(u), u.Dims(), q)
	hist := huffman.HistogramInt32(wide)
	if hist.Len() <= 20000 {
		b.Fatalf("the wide stream has %d distinct symbols, want > 20000", hist.Len())
	}
	b.Run("build_wide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := huffman.NewEncoder(hist); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		suffix string
		codes  []int32
	}{{"", codes}, {"_wide", wide}} {
		b.Run("encode"+c.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := huffman.Encode(c.codes); err != nil {
					b.Fatal(err)
				}
			}
		})
		coded, err := huffman.Encode(c.codes)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("decode"+c.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := huffman.Decode(coded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelHurricaneSynth pins the cost of synthesizing one
// hurricane field at the benchmark grid. predictd pays this on a predict
// miss whose DataRef is in neither tier of the dataset cache (the server
// materializes the field before feature extraction), and a Table-2
// collection once per (field, step). The cost is the separable pass's:
// per-call lattice, column and level tables, then 21 lerps and the
// field's closing arithmetic per sample; allocs/op are those tables.
func BenchmarkKernelHurricaneSynth(b *testing.B) { benchHurricaneSynth(b, "TC") }

// BenchmarkKernelHurricaneSynthFields covers the two other shapes of
// field: a wind component (two column terms, one of them a Pow) and a
// moisture species (rainband column terms, a vertical profile, the
// clamp to exact zeros).
func BenchmarkKernelHurricaneSynthFields(b *testing.B) {
	for _, field := range []string{"U", "QSNOW"} {
		b.Run(field, func(b *testing.B) { benchHurricaneSynth(b, field) })
	}
}

func benchHurricaneSynth(b *testing.B, field string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := hurricane.Field(field, 24, benchDims)
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() == 0 {
			b.Fatal("empty field")
		}
	}
}

// BenchmarkKernelFusedSummary pins the single-pass fused extractor on its
// own: two in-order sweeps producing min/max/mean/std/sparsity/histogram.
// Touch invalidates the per-buffer cache each iteration so every pass is
// a real recomputation, not a cache hit.
func BenchmarkKernelFusedSummary(b *testing.B) {
	data := benchField(b, "TC", 24)
	b.SetBytes(int64(data.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.Touch()
		if s := stats.SummaryOf(data, 4096, 0); s.N != data.Len() {
			b.Fatalf("summary covered %d of %d elements", s.N, data.Len())
		}
	}
}

// BenchmarkKernelMetricsChain runs the Stat+Entropy+QuantizedEntropy
// metric chain the way predictd's feature synthesis and the bench metric
// stage do. Before the fused summary each metric re-materialized the input
// as a fresh []float64 and did its own full passes; the chain now shares
// one per-buffer summary, which this benchmark's ns/op and allocs/op pin.
func BenchmarkKernelMetricsChain(b *testing.B) {
	data := benchField(b, "TC", 24)
	names := []string{"stat", "entropy", "quantized_entropy"}
	chain := make([]pressio.Metric, 0, len(names))
	for _, name := range names {
		m, err := pressio.GetMetric(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetOptions(kernelOpts(1e-4)); err != nil {
			b.Fatal(err)
		}
		chain = append(chain, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range chain {
			m.BeginCompress(data)
			if len(m.Results()) == 0 {
				b.Fatal("empty results")
			}
		}
	}
}

// BenchmarkKernelSurrogate times the three stage models that count codes
// through sz3's open-loop row stage (Quantizer.CodesLorenzo), warm, on the
// 32x64x64 TC cell: jin_model over the whole buffer, khan_surrogate over
// its sixteen sampled runs, zperf_model's lorenzo predictor over its
// quarter prefix. khan_surrogate_tight is serve_cold's 64x64x96 TC cell at
// abs=1e-6, where the sampled codes span nearly the whole bin budget.
// allocs/op is the hard gate — a fixed handful (jin_model 7: sz3's plan
// key, the histogram's two columns, the result set and its boxed values),
// never one per element or per row; it was 262 173.
func BenchmarkKernelSurrogate(b *testing.B) {
	data := benchField(b, "TC", 24)
	cold, err := hurricane.Field("TC", 0, []int{64, 64, 96})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, metric string
		data         *pressio.Data
		abs          float64
	}{
		{"jin_model", "jin_model", data, 1e-4},
		{"khan_surrogate", "khan_surrogate", data, 1e-4},
		{"khan_surrogate_tight", "khan_surrogate", cold, 1e-6},
		{"zperf_lorenzo", "zperf_model", data, 1e-4},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := pressio.GetMetric(c.metric)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.SetOptions(kernelOpts(c.abs)); err != nil {
				b.Fatal(err)
			}
			m.BeginCompress(c.data) // fills the pools and the buffer's float64 view
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.BeginCompress(c.data)
			}
		})
	}
}
