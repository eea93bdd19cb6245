package metrics

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	_ "repro/internal/compressor/sz3"
	"repro/internal/hurricane"
	"repro/internal/pressio"
)

var testDims = []int{8, 16, 16}

func field(t *testing.T, name string) *pressio.Data {
	t.Helper()
	d, err := hurricane.Field(name, 20, testDims)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAllMetricsRegistered(t *testing.T) {
	for _, name := range []string{"stat", "entropy", "quantized_entropy", "variogram",
		"svd_trunc", "spatial", "distortion", "size", "error_stat"} {
		m, err := pressio.GetMetric(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("%s: Name() = %q", name, m.Name())
		}
		if len(m.Invalidates()) == 0 {
			t.Errorf("%s: empty predictors:invalidate list", name)
		}
	}
}

// TestStaticMetadataIsTheMaps holds every metric that declares static
// option keys (pressio.StaticMetadata, which a plan reads instead of
// Options) to the keys Options holds, before and after options, and every
// typed read (pressio.FloatResulter) to Results.
func TestStaticMetadataIsTheMaps(t *testing.T) {
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	opts.Set("entropy:bins", int64(64))
	data := field(t, "P")
	for _, name := range pressio.MetricNames() {
		m, _ := pressio.GetMetric(name)
		sm, static := m.(pressio.StaticMetadata)
		for pass := 0; static && pass < 2; pass++ {
			declared := slices.Clone(sm.OptionKeys())
			slices.Sort(declared)
			if keys := m.Options().Keys(); !slices.Equal(declared, keys) {
				t.Errorf("%s: OptionKeys %v, Options %v", name, sm.OptionKeys(), keys)
			}
			m.SetOptions(opts)
		}
		fr, typed := m.(pressio.FloatResulter)
		if !typed {
			continue
		}
		if _, held := fr.ResultFloat(name + ":none"); held {
			t.Errorf("%s: a typed read before any observation", name)
		}
		m.SetOptions(opts)
		m.BeginCompress(data)
		results := m.Results()
		if len(results) == 0 {
			t.Errorf("%s: no results to read", name)
		}
		for k, v := range results {
			if got, held := fr.ResultFloat(k); !held || math.Float64bits(got) != math.Float64bits(v.(float64)) {
				t.Errorf("%s: ResultFloat(%q) = %v, %v; Results holds %v", name, k, got, held, v)
			}
		}
		if _, held := fr.ResultFloat(name + ":none"); held {
			t.Errorf("%s: ResultFloat holds a key Results does not", name)
		}
	}
}

func TestStatValues(t *testing.T) {
	m := &Stat{}
	d := pressio.FromFloat32([]float32{0, 0, 2, 4}, 4)
	m.BeginCompress(d)
	r := m.Results()
	if v, _ := r.GetFloat("stat:range"); v != 4 {
		t.Errorf("range = %v", v)
	}
	if v, _ := r.GetFloat("stat:sparsity"); v != 0.5 {
		t.Errorf("sparsity = %v", v)
	}
	if v, _ := r.GetFloat("stat:mean"); v != 1.5 {
		t.Errorf("mean = %v", v)
	}
}

func TestQuantizedEntropyRespondsToBound(t *testing.T) {
	d := field(t, "P")
	loose := &QuantizedEntropy{}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1.0)
	loose.SetOptions(opts)
	loose.BeginCompress(d)
	lv, _ := loose.Results().GetFloat("quantized_entropy:bits")

	tight := &QuantizedEntropy{}
	opts.Set(pressio.OptAbs, 1e-6)
	tight.SetOptions(opts)
	tight.BeginCompress(d)
	tv, _ := tight.Results().GetFloat("quantized_entropy:bits")
	if lv >= tv {
		t.Errorf("loose bound entropy %v should be below tight %v", lv, tv)
	}
}

func TestSpatialDistinguishesFields(t *testing.T) {
	sm := &Spatial{}
	sm.BeginCompress(field(t, "P"))
	pSmooth, _ := sm.Results().GetFloat("spatial:smoothness")
	sm.BeginCompress(field(t, "W"))
	wSmooth, _ := sm.Results().GetFloat("spatial:smoothness")
	if pSmooth <= wSmooth {
		t.Errorf("P smoothness %v should exceed W %v", pSmooth, wSmooth)
	}
	sm.BeginCompress(field(t, "QRAIN"))
	qDiv, _ := sm.Results().GetFloat("spatial:diversity")
	sm.BeginCompress(field(t, "P"))
	pDiv, _ := sm.Results().GetFloat("spatial:diversity")
	if qDiv <= pDiv {
		t.Errorf("sparse QRAIN diversity %v should exceed dense P %v", qDiv, pDiv)
	}
}

// TestSpatialBitsPinned holds spatial:* to the bits recorded before
// smoothness and coding gain came to share one variance and one lag-1
// variogram: sharing the pair may not move a result. The values are
// amd64's (the inputs are hurricane fields, whose bits are pinned there).
func TestSpatialBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("recorded on amd64; hurricane's transcendentals may round differently on %s", runtime.GOARCH)
	}
	keys := []string{"spatial:correlation", "spatial:smoothness", "spatial:diversity", "spatial:coding_gain"}
	for name, want := range map[string][4]uint64{
		"P":     {0x3fefff3673dca47f, 0x3fef079125412bc1, 0x3fedb23b8e1f83b9, 0x402e5d15b24e523b},
		"W":     {0x3fe576905b77b2e5, 0x3fe4baec0c90b5f9, 0x3fea1f307fb13ccf, 0x4012211987497ce2},
		"QRAIN": {0x3fe50771b0c175c3, 0x3fe35daed16eaa24, 0x3ff655bc19e7e0a2, 0x401024f06fe51a67},
	} {
		sm := &Spatial{}
		sm.BeginCompress(field(t, name))
		for i, key := range keys {
			v, ok := sm.Results().GetFloat(key)
			if !ok || math.Float64bits(v) != want[i] {
				t.Errorf("%s %s = %#016x (%v), pinned %#016x", name, key, math.Float64bits(v), v, want[i])
			}
		}
	}
}

// TestSVDTruncAndExactEntropyBitsPinned holds svd_trunc's rank and
// fraction and the exact-value quantized_entropy (abs = 0) on float32
// hurricane cells to the bits recorded while both read a float64 copy of
// the buffer: reading the float32 elements in place may not move a
// result. The values are amd64's, like TestSpatialBitsPinned's.
func TestSVDTruncAndExactEntropyBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("recorded on amd64; hurricane's transcendentals may round differently on %s", runtime.GOARCH)
	}
	for name, want := range map[string]struct {
		rank           int64
		fraction, bits uint64
	}{
		"P":     {1, 0x3fb0000000000000, 0x4025fe8000000000},
		"W":     {9, 0x3fe2000000000000, 0x4026000000000000},
		"QRAIN": {6, 0x3fd8000000000000, 0x4000ed7268a1d87c},
	} {
		in := field(t, name)
		if in.DType() != pressio.DTypeFloat32 {
			t.Fatalf("%s is %v, want float32", name, in.DType())
		}
		svd := &SVDTrunc{}
		svd.BeginCompress(in)
		if rank, _ := svd.Results().GetInt("svd_trunc:rank"); rank != want.rank {
			t.Errorf("%s svd_trunc:rank = %d, pinned %d", name, rank, want.rank)
		}
		if v, ok := svd.Results().GetFloat("svd_trunc:fraction"); !ok || math.Float64bits(v) != want.fraction {
			t.Errorf("%s svd_trunc:fraction = %#016x (%v), pinned %#016x", name, math.Float64bits(v), v, want.fraction)
		}
		qe := &QuantizedEntropy{}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, 0.0)
		qe.SetOptions(opts)
		qe.BeginCompress(in)
		if v, ok := qe.Results().GetFloat("quantized_entropy:bits"); !ok || math.Float64bits(v) != want.bits {
			t.Errorf("%s quantized_entropy:bits at abs=0 = %#016x (%v), pinned %#016x", name, math.Float64bits(v), v, want.bits)
		}
	}
}

func TestDistortionMetric(t *testing.T) {
	m := &Distortion{}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 0.5)
	m.SetOptions(opts)
	d := pressio.FromFloat32([]float32{0, 16}, 2)
	m.BeginCompress(d)
	v, _ := m.Results().GetFloat("distortion:general")
	if math.Abs(v-4) > 1e-9 {
		t.Errorf("distortion = %v, want 4 (log2(16/1))", v)
	}
}

func TestSizeAndErrorStatThroughGroup(t *testing.T) {
	comp, err := pressio.GetCompressor("sz3")
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	g, err := pressio.NewMetricsGroup(comp, "size", "error_stat")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	in := field(t, "TC")
	compressed, err := g.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	out := pressio.New(in.DType(), in.Dims()...)
	if err := g.Decompress(compressed, out); err != nil {
		t.Fatal(err)
	}
	r := g.Results()
	cr, ok := r.GetFloat("size:compression_ratio")
	if !ok || cr <= 1 {
		t.Errorf("compression_ratio = %v, %v", cr, ok)
	}
	maxErr, ok := r.GetFloat("error_stat:max_error")
	if !ok || maxErr > 1e-3 || maxErr <= 0 {
		t.Errorf("max_error = %v, %v", maxErr, ok)
	}
	if _, ok := r.GetFloat("error_stat:psnr"); !ok {
		t.Error("missing psnr")
	}
	if _, ok := r.GetFloat("time:compress"); !ok {
		t.Error("missing compressor timing")
	}
}

func TestSizeHandlesCompressError(t *testing.T) {
	m := &Size{}
	m.EndCompress(pressio.NewFloat32(4), nil, errors.New("boom"))
	if v, ok := m.Results().GetBool("size:error"); !ok || !v {
		t.Error("size should record the failure")
	}
}

func TestErrorStatHandlesMismatch(t *testing.T) {
	m := &ErrorStat{}
	m.BeginCompress(pressio.NewFloat32(4))
	m.EndDecompress(nil, pressio.NewFloat32(2), nil)
	if v, ok := m.Results().GetBool("error_stat:error"); !ok || !v {
		t.Error("error_stat should record the mismatch")
	}
}

func TestVariogramMetric(t *testing.T) {
	m := &Variogram{}
	m.BeginCompress(field(t, "P"))
	r := m.Results()
	g1, ok := r.GetFloat("variogram:gamma1")
	if !ok || g1 < 0 {
		t.Errorf("gamma1 = %v, %v", g1, ok)
	}
	if _, ok := r.GetFloat("variogram:slope"); !ok {
		t.Error("missing slope")
	}
}

func TestSVDTruncMetric(t *testing.T) {
	m := &SVDTrunc{}
	m.BeginCompress(field(t, "P"))
	r := m.Results()
	frac, ok := r.GetFloat("svd_trunc:fraction")
	if !ok || frac <= 0 || frac > 1 {
		t.Errorf("fraction = %v, %v", frac, ok)
	}
	// smooth P needs less rank than noisy W
	m.BeginCompress(field(t, "W"))
	wFrac, _ := m.Results().GetFloat("svd_trunc:fraction")
	if frac >= wFrac {
		t.Errorf("P rank fraction %v should be below W %v", frac, wFrac)
	}
}

func TestEntropyBinsOption(t *testing.T) {
	m := &Entropy{}
	o := pressio.Options{}
	o.Set("entropy:bins", 16)
	m.SetOptions(o)
	if v, _ := m.Options().GetInt("entropy:bins"); v != 16 {
		t.Errorf("bins = %v", v)
	}
	m.BeginCompress(field(t, "U"))
	h, ok := m.Results().GetFloat("entropy:shannon")
	if !ok || h <= 0 || h > 4 {
		t.Errorf("entropy with 16 bins = %v (must be in (0, 4])", h)
	}
}
