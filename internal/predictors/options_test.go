package predictors

import (
	"strings"
	"testing"

	"repro/internal/compressor/sz3"
	"repro/internal/core"
	"repro/internal/pressio"
)

// TestSchemeSurfaceContracts sweeps every registered real scheme and
// checks the registry-facing surface every tool relies on: names map to
// their registry keys, targets are set, option structures round-trip.
func TestSchemeSurfaceContracts(t *testing.T) {
	for _, name := range []string{"tao2019", "krasowska2021", "underwood2023",
		"ganguli2023", "jin2022", "khan2023", "rahman2023", "wang2023"} {
		s, err := core.GetScheme(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("%s: Name() = %q", name, s.Name())
		}
		if s.Target() != "size:compression_ratio" {
			t.Errorf("%s: Target() = %q", name, s.Target())
		}
		if len(s.Metrics()) == 0 || len(s.Features()) == 0 {
			t.Errorf("%s: empty metrics/features", name)
		}
		// every metric must exist in the registry and carry invalidation
		// metadata
		for _, mn := range s.Metrics() {
			m, err := pressio.GetMetric(mn)
			if err != nil {
				t.Errorf("%s: metric %s: %v", name, mn, err)
				continue
			}
			if len(m.Invalidates()) == 0 {
				t.Errorf("%s: metric %s has an empty predictors:invalidate list", name, mn)
			}
		}
	}
}

// TestPredictionMetricOptionsRoundTrip checks that each scheme-specific
// metric reports its configuration back through Options() after
// SetOptions, the introspection predict-bench's hashing depends on.
func TestPredictionMetricOptionsRoundTrip(t *testing.T) {
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 0.25)
	opts.Set(OptJinFastIterator, true)
	opts.Set(OptJinQuantBins, 1024)
	opts.Set(OptKhanCompressor, "zfp")
	opts.Set(OptKhanSampleFraction, 0.1)
	opts.Set(OptTaoCompressor, "szx")
	opts.Set(OptTaoBlocks, 4)
	opts.Set(OptTaoBlockElems, 128)
	opts.Set(OptZperfPredictor, "interp")
	opts.Set(OptZperfCoder, "entropy")
	opts.Set(OptZperfLossless, "none")
	opts.Set(OptZperfSampleFraction, 0.5)

	jin := &JinModel{}
	if err := jin.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	got := jin.Options()
	if v, _ := got.GetFloat(pressio.OptAbs); v != 0.25 {
		t.Errorf("jin abs = %v", v)
	}
	if v, _ := got.GetBool(OptJinFastIterator); !v {
		t.Error("jin fast iterator lost")
	}
	if v, _ := got.GetInt(OptJinQuantBins); v != 1024 {
		t.Errorf("jin bins = %v", v)
	}

	khan := &KhanSurrogate{}
	if err := khan.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	got = khan.Options()
	if v, _ := got.GetString(OptKhanCompressor); v != "zfp" {
		t.Errorf("khan compressor = %q", v)
	}
	if v, _ := got.GetFloat(OptKhanSampleFraction); v != 0.1 {
		t.Errorf("khan fraction = %v", v)
	}

	tao := &TaoSample{}
	if err := tao.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	got = tao.Options()
	if v, _ := got.GetString(OptTaoCompressor); v != "szx" {
		t.Errorf("tao compressor = %q", v)
	}
	if v, _ := got.GetInt(OptTaoBlocks); v != 4 {
		t.Errorf("tao blocks = %v", v)
	}
	if v, _ := got.GetInt(OptTaoBlockElems); v != 128 {
		t.Errorf("tao block elems = %v", v)
	}

	zperf := &ZperfModel{}
	if err := zperf.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	got = zperf.Options()
	if v, _ := got.GetString(OptZperfPredictor); v != "interp" {
		t.Errorf("zperf predictor = %q", v)
	}
	if v, _ := got.GetString(OptZperfCoder); v != "entropy" {
		t.Errorf("zperf coder = %q", v)
	}
	if v, _ := got.GetString(OptZperfLossless); v != "none" {
		t.Errorf("zperf lossless = %q", v)
	}
	if v, _ := got.GetFloat(OptZperfSampleFraction); v != 0.5 {
		t.Errorf("zperf fraction = %v", v)
	}
}

// TestKhanSZXEstimate covers the szx stage surrogate: a mostly-constant
// field should be estimated far more compressible than a noisy one.
func TestKhanSZXEstimate(t *testing.T) {
	constant := pressio.NewFloat32(4096)
	noisy := pressio.NewFloat32(4096)
	for i := 0; i < noisy.Len(); i++ {
		noisy.Set(i, float64(i%977)*0.37)
	}
	crOf := func(d *pressio.Data) float64 {
		m := &KhanSurrogate{}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 1e-3)
		opts.Set(OptKhanCompressor, "szx")
		if err := m.SetOptions(opts); err != nil {
			t.Fatal(err)
		}
		m.BeginCompress(d)
		cr, ok := m.Results().GetFloat("khan_surrogate:cr")
		if !ok {
			t.Fatal("missing khan_surrogate:cr")
		}
		return cr
	}
	cc := crOf(constant)
	nc := crOf(noisy)
	if cc <= nc*2 {
		t.Errorf("constant field (%v) should estimate far better than noisy (%v)", cc, nc)
	}
	if nc < 1 {
		t.Errorf("estimate below 1: %v", nc)
	}
}

// jin:quant_bins is held to sz3's own range: a code is an int32 and the
// count window spans the codes, so a budget past it is a request for the
// machine's memory. A refusal names the key and leaves the model as it was;
// Options reports the bound and budget BeginCompress will use.
func TestJinQuantBinsIsHeldToSZ3sRange(t *testing.T) {
	for _, tc := range []struct {
		bins int64
		ok   bool
	}{
		{4, true}, {512, true}, {1 << 24, true},
		{3, false}, {0, false}, {-1, false}, {1<<24 + 1, false}, {1 << 33, false},
	} {
		m := &JinModel{}
		opts := pressio.Options{}
		opts.Set(OptJinQuantBins, tc.bins)
		err := m.SetOptions(opts)
		if tc.ok != (err == nil) {
			t.Errorf("jin:quant_bins=%d: err = %v, want ok=%v", tc.bins, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), OptJinQuantBins) {
			t.Errorf("jin:quant_bins=%d: error %q does not name the key", tc.bins, err)
		}
		want := tc.bins
		if !tc.ok {
			want = sz3.DefaultBins
		}
		if got, _ := m.Options().GetInt(OptJinQuantBins); got != want {
			t.Errorf("jin:quant_bins=%d: Options reports %d, want %d", tc.bins, got, want)
		}
	}
	if abs, _ := (&JinModel{}).Options().GetFloat(pressio.OptAbs); abs != 1e-4 {
		t.Errorf("an unset bound reports %v, want the effective 1e-4", abs)
	}
}
