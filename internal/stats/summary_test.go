package stats

import (
	"math"
	"testing"

	"repro/internal/pressio"
)

func TestHistogramDegenerateRange(t *testing.T) {
	xs := []float64{3, 3, 3, 3}
	h := Histogram(xs, 3, 3, 8) // lo == hi
	if h[0] != 4 {
		t.Errorf("lo==hi: counts[0] = %d, want 4", h[0])
	}
	for i, c := range h[1:] {
		if c != 0 {
			t.Errorf("lo==hi: counts[%d] = %d, want 0", i+1, c)
		}
	}
	h = Histogram(xs, 5, 2, 4) // hi < lo
	if h[0] != 4 {
		t.Errorf("hi<lo: counts[0] = %d, want 4", h[0])
	}
}

func TestHistogramSingleBin(t *testing.T) {
	xs := []float64{-1, 0, 2.5, 7}
	h := Histogram(xs, -1, 7, 1)
	if len(h) != 1 || h[0] != 4 {
		t.Errorf("bins==1: got %v, want [4]", h)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := Histogram(nil, 0, 1, 4)
	var total uint64
	for _, c := range h {
		total += c
	}
	if len(h) != 4 || total != 0 {
		t.Errorf("empty input: got %v, want 4 zero bins", h)
	}
}

func TestHistogramNonFinite(t *testing.T) {
	xs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5}
	h := Histogram(xs, 0, 1, 4)
	var total uint64
	for _, c := range h {
		total += c
	}
	// every element lands in some bin — Go's out-of-range float→int
	// conversion yields the platform "indefinite" value, which the clamp
	// sends to bin 0 for NaN and both infinities
	if total != 4 {
		t.Errorf("non-finite: %d elements binned, want 4", total)
	}
	if h[2] != 1 {
		t.Errorf("0.5 should land in bin 2: %v", h)
	}
}

func summaryFor(t *testing.T, vals []float32, bins int) *Summary {
	t.Helper()
	d := pressio.FromFloat32(vals, len(vals))
	return Summarize(d, bins)
}

func TestSummaryMatchesReferenceStats(t *testing.T) {
	vals := make([]float32, 10000)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i)/37) * float64(i%89))
		if i%97 == 0 {
			vals[i] = 0
		}
	}
	d := pressio.FromFloat32(vals, 100, 100)
	s := Summarize(d, 256)

	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = float64(v)
	}
	lo, hi := d.Range()
	if s.Min != lo || s.Max != hi {
		t.Errorf("min/max = %g/%g, want %g/%g", s.Min, s.Max, lo, hi)
	}
	if diff := math.Abs(s.Mean - Mean(xs)); diff > 1e-9*math.Abs(s.Mean) {
		t.Errorf("mean = %g, want %g", s.Mean, Mean(xs))
	}
	if diff := math.Abs(s.Std - Std(xs)); diff > 1e-9*s.Std {
		t.Errorf("std = %g, want %g", s.Std, Std(xs))
	}
	if s.Sparsity() != Sparsity(xs, 0) {
		t.Errorf("sparsity = %g, want %g", s.Sparsity(), Sparsity(xs, 0))
	}
	ref := Histogram(xs, lo, hi, 256)
	for i := range ref {
		if s.Hist[i] != ref[i] {
			t.Fatalf("hist[%d] = %d, want %d", i, s.Hist[i], ref[i])
		}
	}
	if s.Entropy() != EntropyFromCounts(ref) {
		t.Errorf("entropy = %g, want %g", s.Entropy(), EntropyFromCounts(ref))
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := summaryFor(t, []float32{}, 16)
	if s.N != 0 || s.Sparsity() != 0 || s.Entropy() != 0 {
		t.Errorf("empty summary: N=%d sparsity=%g entropy=%g", s.N, s.Sparsity(), s.Entropy())
	}
	if len(s.Hist) != 16 {
		t.Errorf("empty summary hist len = %d, want 16", len(s.Hist))
	}
}

func TestSummaryConstantField(t *testing.T) {
	s := summaryFor(t, []float32{5, 5, 5, 5, 5}, 8)
	if s.Min != 5 || s.Max != 5 || s.Range() != 0 {
		t.Errorf("constant field: min=%g max=%g", s.Min, s.Max)
	}
	if s.Mean != 5 || s.Std != 0 {
		t.Errorf("constant field: mean=%g std=%g", s.Mean, s.Std)
	}
	// degenerate range: everything in bin 0, matching Histogram
	if s.Hist[0] != 5 {
		t.Errorf("constant field: hist[0]=%d, want 5", s.Hist[0])
	}
	if s.Entropy() != 0 {
		t.Errorf("constant field entropy = %g, want 0", s.Entropy())
	}
}

func TestSummarySingleBin(t *testing.T) {
	s := summaryFor(t, []float32{1, 2, 3, 4}, 1)
	if len(s.Hist) != 1 || s.Hist[0] != 4 {
		t.Errorf("bins==1: hist = %v, want [4]", s.Hist)
	}
	if s.Entropy() != 0 {
		t.Errorf("bins==1 entropy = %g, want 0", s.Entropy())
	}
}

func TestSummaryNaNInf(t *testing.T) {
	nan32 := float32(math.NaN())
	inf32 := float32(math.Inf(1))
	s := summaryFor(t, []float32{1, nan32, 2, inf32, 3}, 4)
	if s.NaNCount != 1 || s.InfCount != 1 {
		t.Errorf("NaN/Inf counts = %d/%d, want 1/1", s.NaNCount, s.InfCount)
	}
	// min/max skip NaN (comparison semantics) but include Inf
	if s.Min != 1 || !math.IsInf(s.Max, 1) {
		t.Errorf("min/max = %g/%g, want 1/+Inf", s.Min, s.Max)
	}
	var total uint64
	for _, c := range s.Hist {
		total += c
	}
	if total != 5 {
		t.Errorf("histogram binned %d elements, want all 5", total)
	}
}

func TestSummaryAllNaN(t *testing.T) {
	nan32 := float32(math.NaN())
	s := summaryFor(t, []float32{nan32, nan32, nan32}, 4)
	if s.NaNCount != 3 {
		t.Errorf("NaNCount = %d, want 3", s.NaNCount)
	}
	if s.Min != 0 || s.Max != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("all-NaN moments should be zero: %+v", s)
	}
	if s.Hist[0] != 3 {
		t.Errorf("all-NaN hist[0] = %d, want 3", s.Hist[0])
	}
}

func TestSummaryOfCachesPerGeneration(t *testing.T) {
	// 128 elements: an 8-bin histogram is an eighth of the buffer, the
	// most that rides on it
	vals := make([]float32, 128)
	for i := range vals {
		vals[i] = float32(i%4 + 1)
	}
	d := pressio.FromFloat32(vals, len(vals))
	s1 := SummaryOf(d, 8, 1)
	s2 := SummaryOf(d, 8, 1)
	if s1 != s2 {
		t.Errorf("same generation should return the cached summary")
	}
	d.Set(0, 100)
	s3 := SummaryOf(d, 8, 1)
	if s3 == s1 {
		t.Errorf("mutation must invalidate the cached summary")
	}
	if s3.Max != 100 {
		t.Errorf("post-mutation max = %g, want 100", s3.Max)
	}
}

// TestSummaryOfLivesOnTheBuffer: the summary is kept by the buffer, not
// by a bounded process-wide list, so any number of live buffers keep
// theirs.
func TestSummaryOfLivesOnTheBuffer(t *testing.T) {
	bufs := make([]*pressio.Data, 32)
	first := make([]*Summary, len(bufs))
	for i := range bufs {
		vals := make([]float32, 256)
		vals[0] = float32(i)
		bufs[i] = pressio.FromFloat32(vals, len(vals))
		first[i] = SummaryOf(bufs[i], 8, 1)
	}
	for i, d := range bufs {
		if SummaryOf(d, 8, 1) != first[i] {
			t.Fatalf("buffer %d of %d live ones lost its summary", i, len(bufs))
		}
		if SummaryOf(d, 0, 1) != first[i] {
			t.Errorf("buffer %d: a moments-only request should reuse the histogram summary", i)
		}
	}
	// a different bin count replaces the stored summary
	s16 := SummaryOf(bufs[0], 16, 1)
	if s16.Bins != 16 || SummaryOf(bufs[0], 16, 1) != s16 {
		t.Errorf("bins=16 summary not kept: %+v", s16)
	}
	// a reshaped view shares storage but not the slot
	view, err := bufs[1].Reshape(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if SummaryOf(view, 8, 1) == first[1] {
		t.Error("a Reshape view was served the original buffer's summary object")
	}
}

// TestSummaryOfKeepsHistogramOnlyWhereSmall: what rides on a buffer
// stays in memory as long as the buffer does, so a histogram larger than
// an eighth of the buffer is returned but not kept; the moments are.
func TestSummaryOfKeepsHistogramOnlyWhereSmall(t *testing.T) {
	d := pressio.FromFloat32([]float32{1, 2, 3, 4}, 4) // 16 bytes
	s := SummaryOf(d, 8, 1)                            // 64 bytes of bins
	if s.Bins != 8 || len(s.Hist) != 8 {
		t.Fatalf("caller must still get its histogram: %+v", s)
	}
	kept := SummaryOf(d, 0, 1)
	if kept.Hist != nil || kept.Bins != 0 {
		t.Errorf("a 64-byte histogram was kept on a 16-byte buffer: %+v", kept)
	}
	if kept.Mean != s.Mean || kept.Std != s.Std || kept.Min != s.Min || kept.Max != s.Max || kept.N != s.N {
		t.Errorf("kept moments %+v differ from the computed %+v", kept, s)
	}
	if again := SummaryOf(d, 8, 1); again == s || again.Entropy() != s.Entropy() {
		t.Errorf("a second bins=8 call should recompute an equal summary")
	}
	if SummaryOf(d, 0, 1) != kept {
		t.Error("recomputing the histogram replaced the kept moments")
	}
}

// TestFloat64RunReadsOnlyTheRun: a run is float64(x) of the elements at
// those indices, converted into the caller's scratch (or, for a float64
// buffer, not converted at all).
func TestFloat64RunReadsOnlyTheRun(t *testing.T) {
	d := pressio.FromFloat32([]float32{0.1, 0.2, 0.3, 0.4, 0.5}, 5)
	scratch := make([]float64, 0, 8)
	run := Float64Run(d, 1, 4, scratch)
	if len(run) != 3 || &run[0] != &scratch[:1][0] {
		t.Fatalf("run = %v, want 3 elements converted into the scratch", run)
	}
	for i, v := range d.Float32()[1:4] {
		if run[i] != float64(v) {
			t.Errorf("run[%d] = %v, the buffer has %v", i, run[i], v)
		}
	}
	if grown := Float64Run(d, 0, 5, scratch[:0:2]); len(grown) != 5 || grown[4] != float64(float32(0.5)) {
		t.Errorf("a scratch too small must be replaced: %v", grown)
	}
	ints := pressio.NewInt32(4)
	ints.Set(2, 7)
	if got := Float64Run(ints, 2, 4, nil); len(got) != 2 || got[0] != 7 || got[1] != 0 {
		t.Errorf("int32 run = %v, want [7 0]", got)
	}
	d64 := pressio.FromFloat64([]float64{1, 2, 3}, 3)
	if got := Float64Run(d64, 1, 3, scratch); &got[0] != &d64.Float64()[1] || len(got) != 2 {
		t.Errorf("a float64 buffer's run should be its own sub-slice")
	}
	if got := Float64Run(d, 2, 2, nil); len(got) != 0 {
		t.Errorf("empty run = %v", got)
	}
}

// TestQuantizedEntropyOfMatchesReference holds the buffer kernel to the
// bits of the float64 reference on every path it has: float32 read in
// place, float64 and int32 read as float64, a key span narrow enough for
// the dense window and one wide enough for the map, non-finite values,
// and the exact-value entropy of abs = 0.
func TestQuantizedEntropyOfMatchesReference(t *testing.T) {
	const n = 5000
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	wide := make([]float64, n)
	i32 := pressio.NewInt32(n)
	for i := range n {
		f32[i] = float32(math.Sin(float64(i) / 11))
		f64[i] = math.Sin(float64(i)/7) * 3.5
		wide[i] = math.Sin(float64(i)/5) * 1e9
		i32.Set(i, float64(i*37%1001-500))
	}
	nan32 := append([]float32(nil), f32...)
	nan32[17] = float32(math.NaN())
	nan64 := append([]float64(nil), f64...)
	nan64[17], nan64[99] = math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		d    func() *pressio.Data
		abs  []float64
	}{
		{"float32", func() *pressio.Data { return pressio.FromFloat32(f32, n) }, []float64{1e-1, 1e-3, 1e-6, 0}},
		{"float64", func() *pressio.Data { return pressio.FromFloat64(f64, n) }, []float64{1, 1e-2, 1e-4, 1e-6, 0}},
		{"int32", func() *pressio.Data { return i32 }, []float64{0.5, 3, 1e-3, 0}},
		{"wide span", func() *pressio.Data { return pressio.FromFloat64(wide, n) }, []float64{1e-3, 1e-6}},
		{"float32 NaN", func() *pressio.Data { return pressio.FromFloat32(nan32, n) }, []float64{1e-3, 0}},
		{"float64 NaN Inf", func() *pressio.Data { return pressio.FromFloat64(nan64, n) }, []float64{1e-2, 0}},
	}
	for _, c := range cases {
		d := c.d()
		xs := Float64Run(d, 0, d.Len(), nil)
		for _, abs := range c.abs {
			got := QuantizedEntropyOf(d, abs)
			want := QuantizedEntropy(xs, abs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, abs=%g: quantized entropy = %v, want %v", c.name, abs, got, want)
			}
		}
	}
}
