package predictors

// The golden bits pin every feature a code count ends in: khan_surrogate's
// SZ estimate over the serving cell, jin_model's and zperf_model's results,
// wang2023's entropy-coder bits per symbol, and the two stats entropies that
// share EntropyFromCounts with them. The file was written by the code-model
// walk that scanned and cleared the whole span of its codes and must never
// be regenerated to make a change pass; a deliberate change of a feature
// rewrites it with:
//
//	go test ./internal/predictors/ -run TestCodeModelGoldenBits -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/hurricane"
	"repro/internal/pressio"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bits.json")

const goldenBitsPath = "testdata/golden_bits.json"

// codeModelBits computes every pinned value, keyed by what produced it, as
// the hex of its float64 bits.
func codeModelBits(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	put := func(key string, v float64) { got[key] = fmt.Sprintf("%016x", math.Float64bits(v)) }
	cell := func(field string, step int, dims []int) *pressio.Data {
		d, err := hurricane.Field(field, step, dims)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	results := func(prefix string, m pressio.Metric, opts pressio.Options, in *pressio.Data) {
		if err := m.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		m.BeginCompress(in)
		r := m.Results()
		for _, k := range r.Keys() {
			if v, ok := r.GetFloat(k); ok {
				put(prefix+"/"+k, v)
			}
		}
	}

	// khan_surrogate's sz3 estimate on serve_cold's cell, every field, from
	// a bound whose codes span the bin budget to one where they span a few
	for _, field := range hurricane.FieldNames {
		for _, step := range []int{0, 1} {
			in := cell(field, step, []int{64, 64, 96})
			for _, abs := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
				opts := optsWith(pressio.OptAbs, abs)
				opts.Set(OptKhanCompressor, "sz3")
				results(fmt.Sprintf("khan/%s/t%02d/abs=%g", field, step, abs), &KhanSurrogate{}, opts, in)
			}
		}
	}

	in := cell("U", 3, []int{32, 32, 64})
	for _, abs := range []float64{1e-6, 1e-4} {
		opts := optsWith(pressio.OptAbs, abs)
		results(fmt.Sprintf("jin/abs=%g", abs), &JinModel{}, opts, in)
		for _, predictor := range []string{"lorenzo", "interp", "regression", "mean"} {
			for _, coder := range []string{"huffman", "entropy", "fixed"} {
				opts.Set(OptZperfPredictor, predictor)
				opts.Set(OptZperfCoder, coder)
				results(fmt.Sprintf("zperf/%s/%s/abs=%g", predictor, coder, abs), &ZperfModel{}, opts, in)
			}
		}
	}

	for _, field := range []string{"P", "CLOUD"} {
		in := cell(field, 3, []int{32, 32, 64})
		put(fmt.Sprintf("summary/%s/entropy", field), stats.Summarize(in, 4096).Entropy())
		put(fmt.Sprintf("stats/%s/quantized_entropy", field), stats.QuantizedEntropy(stats.Float64Run(in, 0, in.Len(), nil), 1e-4))
		for _, abs := range []float64{1e-6, 1e-4} {
			zp := &ZperfModel{Abs: abs}
			sample := stats.Float64Run(in, 0, in.Len(), nil)[:int(float64(in.Len())*zp.fraction())]
			hist, _ := zp.residualHistogram(sample)
			put(fmt.Sprintf("wang/%s/abs=%g/bits_per_sym", field, abs), stats.EntropyFromCounts(hist.Counts))
		}
	}
	return got
}

// TestCodeModelGoldenBits holds every code-model feature to the bits the
// golden file recorded.
func TestCodeModelGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits were recorded on amd64, where math.Log is assembly; GOARCH=%s may round it differently", runtime.GOARCH)
	}
	got := codeModelBits(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBitsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenBitsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d values, the test computes %d", goldenBitsPath, len(want), len(got))
	}
	for key, bits := range got {
		if want[key] != bits {
			t.Errorf("%s: bits %s, golden %s", key, bits, want[key])
		}
	}
}
