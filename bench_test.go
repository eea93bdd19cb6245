package repro

// Benchmark harness: one benchmark per table, figure, and §6 claim of the
// paper. Absolute numbers differ from the paper's testbed (reimplemented
// compressors, scaled synthetic grid); the benchmarks preserve the
// *relationships* the paper reports — see EXPERIMENTS.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-scale Table 2 is produced by cmd/predict-bench; the
// BenchmarkTable2EndToEnd benchmark exercises the same pipeline on a
// reduced spec so it completes in benchmark time.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	_ "repro/internal/compressor/lossless"
	_ "repro/internal/compressor/sz3"
	_ "repro/internal/compressor/szx"
	_ "repro/internal/compressor/zfp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hurricane"
	_ "repro/internal/metrics"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/serve"
	"repro/internal/store"
)

// benchDims is the grid used by the per-stage benchmarks (the full
// default grid; table-scale runs live in cmd/predict-bench).
var benchDims = hurricane.DefaultDims

func benchField(b *testing.B, name string, step int) *pressio.Data {
	b.Helper()
	d, err := hurricane.Field(name, step, benchDims)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func withAbs(b *testing.B, abs float64) pressio.Options {
	b.Helper()
	o := pressio.Options{}
	o.Set(pressio.OptAbs, abs)
	return o
}

// --- Table 1: taxonomy regeneration -----------------------------------

func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- §6 baseline: compressor runtimes (Table 2 baseline rows) ----------

func benchmarkCompress(b *testing.B, compressor string) {
	data := benchField(b, "TC", 24)
	comp, err := pressio.GetCompressor(compressor)
	if err != nil {
		b.Fatal(err)
	}
	comp.SetOptions(withAbs(b, 1e-4))
	b.SetBytes(int64(data.ByteSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecompress(b *testing.B, compressor string) {
	data := benchField(b, "TC", 24)
	comp, err := pressio.GetCompressor(compressor)
	if err != nil {
		b.Fatal(err)
	}
	comp.SetOptions(withAbs(b, 1e-4))
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

func BenchmarkBaselineSZ3Compress(b *testing.B)   { benchmarkCompress(b, "sz3") }
func BenchmarkBaselineSZ3Decompress(b *testing.B) { benchmarkDecompress(b, "sz3") }
func BenchmarkBaselineZFPCompress(b *testing.B)   { benchmarkCompress(b, "zfp") }
func BenchmarkBaselineZFPDecompress(b *testing.B) { benchmarkDecompress(b, "zfp") }

// --- Table 2 scheme stages: error-dependent / error-agnostic cost ------

func benchmarkSchemeStage(b *testing.B, schemeName, compressor string) {
	session, err := core.NewSession(schemeName, compressor)
	if err != nil {
		b.Fatal(err)
	}
	opts := withAbs(b, 1e-4)
	opts.Set(predictors.OptTaoCompressor, compressor)
	opts.Set(predictors.OptKhanCompressor, compressor)
	if err := session.SetOptions(opts); err != nil {
		b.Fatal(err)
	}
	data := benchField(b, "TC", 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.InvalidateAll()
		if _, err := session.Evaluate(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2KhanSZ3(b *testing.B)   { benchmarkSchemeStage(b, "khan2023", "sz3") }
func BenchmarkTable2KhanZFP(b *testing.B)   { benchmarkSchemeStage(b, "khan2023", "zfp") }
func BenchmarkTable2JinSZ3(b *testing.B)    { benchmarkSchemeStage(b, "jin2022", "sz3") }
func BenchmarkTable2RahmanSZ3(b *testing.B) { benchmarkSchemeStage(b, "rahman2023", "sz3") }
func BenchmarkTable2RahmanZFP(b *testing.B) { benchmarkSchemeStage(b, "rahman2023", "zfp") }
func BenchmarkTable2TaoSZ3(b *testing.B)    { benchmarkSchemeStage(b, "tao2019", "sz3") }
func BenchmarkTable2KrasowskaSZ3(b *testing.B) {
	benchmarkSchemeStage(b, "krasowska2021", "sz3")
}
func BenchmarkTable2GanguliSZ3(b *testing.B) { benchmarkSchemeStage(b, "ganguli2023", "sz3") }

// BenchmarkTable2UnderwoodSZ3 is the expensive-SVD scheme (§6 ablation).
func BenchmarkTable2UnderwoodSZ3(b *testing.B) {
	benchmarkSchemeStage(b, "underwood2023", "sz3")
}

// --- Table 2 end to end: the full pipeline on a reduced spec -----------

func BenchmarkTable2EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := &bench.Spec{
			Fields:  []string{"P", "CLOUD", "U", "QRAIN"},
			Steps:   3,
			Dims:    []int{8, 16, 16},
			Folds:   3,
			Workers: 4,
			Seed:    int64(i + 1),
		}
		report, err := bench.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- §6 ablation: Underwood's SVD precompute vs its cheap stage --------

func BenchmarkUnderwoodSVDAblation(b *testing.B) {
	data := benchField(b, "U", 24)
	svd, err := pressio.GetMetric("svd_trunc")
	if err != nil {
		b.Fatal(err)
	}
	qent, err := pressio.GetMetric("quantized_entropy")
	if err != nil {
		b.Fatal(err)
	}
	qent.SetOptions(withAbs(b, 1e-4))
	b.Run("svd_truncation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svd.BeginCompress(data)
		}
	})
	b.Run("quantized_entropy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qent.BeginCompress(data)
		}
	})
}

// --- §6 ablation: Jin's iterator overhead ------------------------------

func BenchmarkJinIteratorAblation(b *testing.B) {
	data := benchField(b, "TC", 24)
	run := func(fast bool) func(*testing.B) {
		return func(b *testing.B) {
			m, err := pressio.GetMetric("jin_model")
			if err != nil {
				b.Fatal(err)
			}
			opts := withAbs(b, 1e-4)
			opts.Set(predictors.OptJinFastIterator, fast)
			m.SetOptions(opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.BeginCompress(data)
			}
		}
	}
	b.Run("naive_iterator", run(false))
	b.Run("fast_iterator", run(true))
}

// --- Figure 2: loader pipeline, cold vs cache tiers ---------------------

func BenchmarkFigure2Pipeline(b *testing.B) {
	work := b.TempDir()
	dataDir := filepath.Join(work, "data")
	os.MkdirAll(dataDir, 0o755)
	src, err := dataset.NewSynthetic([]string{"P", "U", "CLOUD", "W"}, 2, []int{8, 32, 32})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < src.Len(); i++ {
		m, _ := src.LoadMetadata(i)
		d, _ := src.LoadData(i)
		if _, err := dataset.WriteRaw(dataDir, m.Name, d); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold_folder_load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			folder, err := dataset.NewFolder(dataDir, "*.f32")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := folder.LoadDataAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memory_cache_hit", func(b *testing.B) {
		folder, _ := dataset.NewFolder(dataDir, "*.f32")
		cache, err := dataset.NewCache(folder, 64<<20, "")
		if err != nil {
			b.Fatal(err)
		}
		cache.LoadDataAll() // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.LoadDataAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("disk_cache_hit", func(b *testing.B) {
		spill := filepath.Join(work, "spill")
		folder, _ := dataset.NewFolder(dataDir, "*.f32")
		warm, err := dataset.NewCache(folder, 0, spill)
		if err != nil {
			b.Fatal(err)
		}
		warm.LoadDataAll() // populate the disk tier
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cold, err := dataset.NewCache(folder, 0, spill)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cold.LoadDataAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 4: the per-prediction inference path -----------------------

func BenchmarkFigure4InferencePath(b *testing.B) {
	session, err := core.NewSession("jin2022", "sz3")
	if err != nil {
		b.Fatal(err)
	}
	if err := session.SetOptions(withAbs(b, 1e-4)); err != nil {
		b.Fatal(err)
	}
	data := benchField(b, "QVAPOR", 24)
	b.Run("cold_prediction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			session.InvalidateAll()
			if _, _, err := session.Predict(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached_prediction", func(b *testing.B) {
		if _, _, err := session.Predict(data); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := session.Predict(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- predictd: a bound sweep over resident cells --------------------------

// BenchmarkServePredictSweep is one step of an autotuner searching error
// bounds through predictd: a 13-item columnar batch (one cell per
// hurricane field, 32x32x64) at a bound never asked before, through the
// whole handler. The cells are resident in the data tier and were
// evaluated at the warm-up bound, so the prediction cache misses and
// the op pays decode, the error-dependent metric, inference and encode;
// rahman2023's error-agnostic metrics (stat, spatial, entropy) come from
// the buffers, and from the second bound on, inference is a lookup in
// each buffer's slice of the forest along distortion:general. Gated in
// BENCH_kernels.json.
func BenchmarkServePredictSweep(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := serve.New(st, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Recover(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer srv.Drain()
	h := srv.Handler()
	do := func(method, path, body string) (int, []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Code, w.Body.Bytes()
	}

	status, raw := do(http.MethodPost, "/v1/fit", `{"scheme":"rahman2023","compressor":"sz3",
		"training":{"fields":["P","CLOUD","U","QVAPOR"],"steps":2,"dims":[16,16,16],"bounds":[1e-5,1e-3]}}`)
	var fit serve.FitResponse
	if status != http.StatusAccepted || json.Unmarshal(raw, &fit) != nil {
		b.Fatalf("fit: HTTP %d %s", status, raw)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		var job serve.JobView
		_, raw := do(http.MethodGet, "/v1/jobs/"+fit.JobID, "")
		if json.Unmarshal(raw, &job); job.Status == "done" {
			break
		}
		if job.Status == "failed" || time.Now().After(deadline) {
			b.Fatalf("fit job: %s %s", job.Status, job.Error)
		}
	}

	const items = 13
	sweep := func(i int) {
		status, raw := do(http.MethodPost, "/v1/predict/batch", fmt.Sprintf(`{"scheme":"rahman2023","compressor":"sz3",
			"options":{"pressio:abs":%g},"dims":[32,32,64],"steps":[0,0,0,0,0,0,0,0,0,0,0,0,0],
			"fields":["CLOUD","P","PRECIP","QCLOUD","QGRAUP","QICE","QRAIN","QSNOW","QVAPOR","TC","U","V","W"]}`,
			1e-6*(1+float64(i)*1e-6)))
		var resp serve.BatchResponse
		if status != http.StatusOK || json.Unmarshal(raw, &resp) != nil || resp.Count != items || resp.Errors != 0 {
			b.Fatalf("sweep %d: HTTP %d %s", i, status, raw)
		}
		for _, r := range resp.Results {
			if r.Cached {
				b.Fatalf("sweep %d: a fresh bound answered cached", i)
			}
		}
	}
	sweep(0) // synthesizes the cells and evaluates them once

	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		sweep(i)
	}
}
