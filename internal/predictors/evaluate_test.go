package predictors

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/pressio"
)

// memoFree is the evaluate step as serve ran it before core.Evaluator:
// fresh plugins, every metric run, nothing reused.
func memoFree(t *testing.T, scheme core.Scheme, compressor string, abs float64, data *pressio.Data) []float64 {
	t.Helper()
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, abs)
	opts.Set(OptTaoCompressor, compressor)
	opts.Set(OptKhanCompressor, compressor)
	results := pressio.Options{}
	for _, name := range scheme.Metrics() {
		m, err := pressio.GetMetric(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		m.BeginCompress(data)
		results.Merge(m.Results())
	}
	f, err := core.ExtractFeatures(results, scheme.Features())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// evaluateFeatures is Plan followed by Evaluate: one buffer, one option set.
func evaluateFeatures(ctx context.Context, e *core.Evaluator, scheme core.Scheme, compressor string, opts pressio.Options, data *pressio.Data) ([]float64, error) {
	p, err := e.Plan(scheme, compressor, opts)
	if err != nil {
		return nil, err
	}
	return p.Evaluate(ctx, data)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEvaluatorBitIdenticalToMemoFree sweeps bounds over one buffer per
// registered scheme × supported compressor: the memoising evaluator must
// return, bit for bit, what running every plugin afresh on an unshared
// copy returns.
func TestEvaluatorBitIdenticalToMemoFree(t *testing.T) {
	ctx := context.Background()
	bounds := []float64{1e-2, 3e-4, 1e-5, 3e-4}
	for _, name := range core.SchemeNames() {
		scheme, err := core.GetScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, compressor := range pressio.CompressorNames() {
			if !scheme.Supports(compressor) {
				continue
			}
			data := field(t, "QVAPOR", 7)
			var ev core.Evaluator
			for _, abs := range bounds {
				opts := pressio.Options{}
				opts.Set(pressio.OptAbs, abs)
				got, err := evaluateFeatures(ctx, &ev, scheme, compressor, opts, data)
				if err != nil {
					t.Fatalf("%s/%s at %g: %v", name, compressor, abs, err)
				}
				if want := memoFree(t, scheme, compressor, abs, data.Clone()); !sameBits(got, want) {
					t.Errorf("%s/%s at %g: memoised %v, memo-free %v", name, compressor, abs, got, want)
				}
			}
			hits, misses := ev.MemoStats()
			agnostic := 0
			for _, mn := range scheme.Metrics() {
				if m, _ := pressio.GetMetric(mn); core.StageOf(m) == core.StageErrorAgnostic {
					agnostic++
				}
			}
			if int(misses) != agnostic || int(hits) != agnostic*(len(bounds)-1) {
				t.Errorf("%s/%s: %d error-agnostic metrics, %d bounds: %d misses / %d hits",
					name, compressor, agnostic, len(bounds), misses, hits)
			}
		}
	}
}

// TestEvaluatorReshapedViewStartsEmpty: spatial depends on dims, so a
// Reshape view of a buffer that was already evaluated must be evaluated
// on its own dims, not served the original's results.
func TestEvaluatorReshapedViewStartsEmpty(t *testing.T) {
	ctx := context.Background()
	scheme, err := core.GetScheme("ganguli2023")
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	data := field(t, "P", 5)
	var ev core.Evaluator
	orig, err := evaluateFeatures(ctx, &ev, scheme, "sz3", opts, data)
	if err != nil {
		t.Fatal(err)
	}
	dims := data.Dims()
	view, err := data.Reshape(dims[0]*dims[1], dims[2])
	if err != nil {
		t.Fatal(err)
	}
	got, err := evaluateFeatures(ctx, &ev, scheme, "sz3", opts, view)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := data.Clone().Reshape(dims[0]*dims[1], dims[2])
	if err != nil {
		t.Fatal(err)
	}
	if want := memoFree(t, scheme, "sz3", 1e-3, flat); !sameBits(got, want) {
		t.Errorf("reshaped view: %v, want its own dims' %v", got, want)
	}
	if sameBits(got, orig) {
		t.Errorf("reshaped view returned the %v-shaped buffer's features %v", dims, orig)
	}
}
