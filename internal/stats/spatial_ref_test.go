package stats

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/hurricane"
	"repro/internal/pressio"
)

// The reference: the []float64 spatial features, variogram and summary
// as they read a float64 copy of the buffer, one sweep per statistic.
// The typed sweeps must reproduce them bit for bit — these are the bits
// every fitted model and checkpoint was made from.

func refMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func refVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := refMean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

func refStd(xs []float64) float64 { return math.Sqrt(refVariance(xs)) }

func refStrides(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

func refVariogram(xs []float64, dims []int, maxLag int) []float64 {
	out := make([]float64, maxLag)
	if len(dims) == 0 {
		return out
	}
	str := refStrides(dims)
	for h := 1; h <= maxLag; h++ {
		var sum float64
		var count int
		for d := range dims {
			if dims[d] <= h {
				continue
			}
			stride := str[d]
			span := dims[d]
			block := stride * span
			lag := h * stride
			for base := 0; base < len(xs); base += block {
				for c := 0; c+h < span; c++ {
					row := base + c*stride
					a := xs[row : row+stride]
					b := xs[row+lag : row+lag+stride]
					for j := range a {
						diff := b[j] - a[j]
						sum += diff * diff
					}
					count += stride
				}
			}
		}
		if count > 0 {
			out[h-1] = sum / (2 * float64(count))
		}
	}
	return out
}

func refSpatialCorrelation(xs []float64, dims []int) float64 {
	if len(dims) == 0 || len(xs) == 0 {
		return 0
	}
	str := refStrides(dims)
	var total float64
	var used int
	for d := range dims {
		if dims[d] < 2 {
			continue
		}
		stride := str[d]
		span := dims[d]
		block := stride * span
		var sa, sb, saa, sbb, sab float64
		var n float64
		for base := 0; base < len(xs); base += block {
			for c := 0; c+1 < span; c++ {
				row := base + c*stride
				av := xs[row : row+stride]
				bv := xs[row+stride : row+2*stride]
				for j := range av {
					a, b := av[j], bv[j]
					sa += a
					sb += b
					saa += a * a
					sbb += b * b
					sab += a * b
				}
				n += float64(stride)
			}
		}
		if n < 2 {
			continue
		}
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		if va <= 0 || vb <= 0 {
			total += 1
			used++
			continue
		}
		total += cov / math.Sqrt(va*vb)
		used++
	}
	if used == 0 {
		return 0
	}
	return total / float64(used)
}

// refSmoothnessAndCodingGain is SpatialSmoothness and CodingGain from one
// variance and one lag-1 semivariance.
func refSmoothnessAndCodingGain(xs []float64, dims []int) (smoothness, gain float64) {
	v := refVariance(xs)
	var g1 float64
	if v != 0 {
		g1 = refVariogram(xs, dims, 1)[0]
	}
	switch s := 1 - g1/v; {
	case v == 0:
		smoothness = 1
	case math.IsNaN(s) || s < 0:
		smoothness = 0
	case s > 1:
		smoothness = 1
	default:
		smoothness = s
	}
	residual := 2 * g1
	if v == 0 || residual <= 0 {
		return smoothness, 60
	}
	gain = 10 * math.Log10(v/(residual/2))
	if gain < 0 {
		return smoothness, 0
	}
	if gain > 60 {
		return smoothness, 60
	}
	return smoothness, gain
}

func refSpatialDiversity(xs []float64, blockCount int) float64 {
	if len(xs) == 0 || blockCount < 1 {
		return 0
	}
	n := len(xs)
	blocks := min(blockCount, n)
	blockStds := make([]float64, 0, blocks)
	size := max(n/blocks, 1)
	for b := 0; b < blocks; b++ {
		lo := b * size
		hi := lo + size
		if b == blocks-1 {
			hi = n
		}
		if lo >= n {
			break
		}
		blockStds = append(blockStds, refStd(xs[lo:hi]))
	}
	m := refMean(blockStds)
	if m == 0 {
		return 0
	}
	return refStd(blockStds) / m
}

// refSummary is the fused summary as two plain sweeps over the float64
// values: moments over the non-NaN elements, then squared deviations and
// the histogram over [Min, Max].
func refSummary(xs []float64, bins int) Summary {
	s := Summary{N: len(xs), Bins: bins}
	if bins > 0 {
		s.Hist = make([]uint64, bins)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var sum float64
	var finite int
	for _, v := range xs {
		if v == 0 {
			s.ZeroCount++
		}
		if math.IsNaN(v) {
			s.NaNCount++
			continue
		}
		if math.IsInf(v, 0) {
			s.InfCount++
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
		finite++
	}
	if finite == 0 {
		if bins > 0 {
			s.Hist[0] = uint64(s.NaNCount)
		}
		return s
	}
	s.Min, s.Max, s.Mean = lo, hi, sum/float64(finite)
	var sumSq float64
	for _, v := range xs {
		if !math.IsNaN(v) {
			dv := v - s.Mean
			sumSq += dv * dv
		}
	}
	s.Std = math.Sqrt(sumSq / float64(finite))
	if bins > 0 {
		s.Hist = Histogram(xs, lo, hi, bins)
	}
	return s
}

// spatialRef is every spatial feature the reference computes.
type spatialRef struct{ correlation, smoothness, diversity, codingGain float64 }

func referenceSpatial(xs []float64, dims []int) spatialRef {
	smoothness, gain := refSmoothnessAndCodingGain(xs, dims)
	return spatialRef{refSpatialCorrelation(xs, dims), smoothness, refSpatialDiversity(xs, 64), gain}
}

// spatialOfData is the package's spatial features of d.
func spatialOfData(d *pressio.Data) spatialRef {
	s := SpatialOf(d)
	return spatialRef{s.Correlation, s.Smoothness, s.Diversity, s.CodingGain}
}

// sameBits is bit equality, with every NaN equal to every other: which
// NaN an operation on two NaN operands returns depends on the operand
// order the compiler picks, so no build pins a NaN's bits.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkAgainstReference holds every spatial feature, the first four
// variogram lags, every Summary field and the histogram of d to the
// reference over d's float64 values. The histogram is checked twice: in
// one summary, and asked for after a moments-only one.
func checkAgainstReference(t *testing.T, name string, d *pressio.Data, bins int) {
	t.Helper()
	xs := make([]float64, d.Len())
	for i := range xs {
		xs[i] = d.At(i)
	}
	dims := d.Dims()
	moments := SummaryOf(d, 0, 0)
	got, want := spatialOfData(d), referenceSpatial(xs, dims)
	for _, c := range []struct {
		key       string
		got, want float64
	}{
		{"correlation", got.correlation, want.correlation},
		{"smoothness", got.smoothness, want.smoothness},
		{"diversity", got.diversity, want.diversity},
		{"coding_gain", got.codingGain, want.codingGain},
	} {
		if !sameBits(c.got, c.want) {
			t.Errorf("%s spatial:%s = %v (%#016x), reference %v (%#016x)", name, c.key, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	gotG, wantG := VariogramOf(d, 4), refVariogram(xs, dims, 4)
	for h := range wantG {
		if !sameBits(gotG[h], wantG[h]) {
			t.Errorf("%s variogram gamma(%d) = %v, reference %v", name, h+1, gotG[h], wantG[h])
		}
	}

	ref := refSummary(xs, bins)
	withHist := SummaryOf(d, bins, 0)
	for _, s := range []struct {
		how string
		got *Summary
	}{{"Summarize", Summarize(d, bins)}, {"SummaryOf after moments", withHist}} {
		g := s.got
		if g.N != ref.N || g.ZeroCount != ref.ZeroCount || g.NaNCount != ref.NaNCount || g.InfCount != ref.InfCount || g.Bins != ref.Bins {
			t.Errorf("%s %s: counts N=%d zeros=%d NaN=%d Inf=%d bins=%d, reference %d %d %d %d %d", name, s.how,
				g.N, g.ZeroCount, g.NaNCount, g.InfCount, g.Bins, ref.N, ref.ZeroCount, ref.NaNCount, ref.InfCount, ref.Bins)
		}
		for _, f := range []struct {
			field     string
			got, want float64
		}{{"Min", g.Min, ref.Min}, {"Max", g.Max, ref.Max}, {"Mean", g.Mean, ref.Mean}, {"Std", g.Std, ref.Std}, {"Var", g.Var, refVariance(xs)}} {
			if !sameBits(f.got, f.want) {
				t.Errorf("%s %s: %s = %v, reference %v", name, s.how, f.field, f.got, f.want)
			}
		}
		if len(g.Hist) != len(ref.Hist) {
			t.Fatalf("%s %s: %d bins, reference %d", name, s.how, len(g.Hist), len(ref.Hist))
		}
		for i := range ref.Hist {
			if g.Hist[i] != ref.Hist[i] {
				t.Fatalf("%s %s: Hist[%d] = %d, reference %d", name, s.how, i, g.Hist[i], ref.Hist[i])
			}
		}
	}
	if moments.N != ref.N || !sameBits(moments.Mean, ref.Mean) || !sameBits(moments.Std, ref.Std) {
		t.Errorf("%s: moments-only summary %+v, reference %+v", name, *moments, ref)
	}
}

// asFloat64 is d's values in a float64 buffer of the same shape.
func asFloat64(d *pressio.Data) *pressio.Data {
	xs := make([]float64, d.Len())
	for i := range xs {
		xs[i] = d.At(i)
	}
	return pressio.FromFloat64(xs, d.Dims()...)
}

// TestSpatialMatchesReference: on every hurricane field, at the shapes
// the schemes see and at degenerate ones (rank 1, rank 2, a span of 1),
// as float32 and as float64, the typed sweeps are the reference's bits.
func TestSpatialMatchesReference(t *testing.T) {
	shapes := []struct {
		name      string
		generated []int
		as        []int // reshaped to, when not the generated grid
	}{
		{"32x32x64", []int{32, 32, 64}, nil},
		{"16x32x32", []int{16, 32, 32}, nil},
		{"64x64x96", []int{64, 64, 96}, nil},
		{"8x8x8", []int{8, 8, 8}, nil},
		{"5x7x3", []int{5, 7, 3}, nil},
		{"rank1", []int{8, 8, 8}, []int{512}},
		{"rank2", []int{16, 32, 32}, []int{16, 1024}},
		{"span1", []int{32, 32, 64}, []int{32, 1, 2048}},
	}
	for _, field := range hurricane.FieldNames {
		for _, sh := range shapes {
			if testing.Short() && sh.name == "64x64x96" {
				continue
			}
			d, err := hurricane.Field(field, 24, sh.generated)
			if err != nil {
				t.Fatal(err)
			}
			if sh.as != nil {
				if d, err = d.Reshape(sh.as...); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstReference(t, field+"/"+sh.name+"/f32", d, 4096)
			checkAgainstReference(t, field+"/"+sh.name+"/f64", asFloat64(d), 4096)
		}
	}
}

// FuzzSpatialMatchesReference: raw float32 or float64 bits — NaN, ±Inf,
// zero runs, denormals — at rank 1–3 and a random bin count, held to the
// reference as TestSpatialMatchesReference holds the hurricane fields.
func FuzzSpatialMatchesReference(f *testing.F) {
	f32 := func(vs ...float32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	f64 := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	ramp := make([]float32, 60)
	for i := range ramp {
		ramp[i] = float32(math.Sin(float64(i)/5)) * float32(i%7)
	}
	f.Add(f32(ramp...), uint8(2), uint8(3), uint8(4), false, uint8(0), uint8(15))
	f.Add(f32(ramp...), uint8(0), uint8(0), uint8(0), false, uint8(30), uint8(63))
	f.Add(f32(1, float32(nan), 2, float32(inf), 3, 0, 0, 0), uint8(1), uint8(1), uint8(0), false, uint8(0), uint8(3))
	f.Add(f32(float32(inf), float32(-inf), 1, 2), uint8(1), uint8(1), uint8(1), false, uint8(0), uint8(0))
	f.Add(f32(math.SmallestNonzeroFloat32, 0, -math.SmallestNonzeroFloat32, 1e-40, 0, 0, 2e-45, 0, 0), uint8(2), uint8(2), uint8(2), false, uint8(0), uint8(7))
	f.Add(f32(float32(nan), float32(nan), float32(nan)), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(1))
	f.Add(f32(5, 5, 5, 5, 5, 5), uint8(1), uint8(2), uint8(0), false, uint8(0), uint8(9))
	f.Add(f64(1, 2, 3, nan, 5, 6, 7, 8), uint8(2), uint8(1), uint8(1), true, uint8(0), uint8(4))
	f.Add(f64(math.MaxFloat64, -math.MaxFloat64, 1, 0, 0, 0, 4.9e-324, inf), uint8(1), uint8(3), uint8(0), true, uint8(0), uint8(2))
	f.Add(f64(0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6), uint8(2), uint8(0), uint8(1), true, uint8(4), uint8(5))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, rank, d0, d1 uint8, wide bool, zeros, bins uint8) {
		size := 4
		if wide {
			size = 8
		}
		n := min(len(raw)/size, 4096)
		dims := []int{n}
		if r := 1 + int(rank)%3; r > 1 && n > 0 {
			// leading extents from the input, the last takes the rest
			dims = dims[:0]
			rest := n
			for _, e := range []uint8{d0, d1}[:r-1] {
				e := 1 + int(e)%min(rest, 8)
				dims = append(dims, e)
				rest /= e
			}
			dims = append(dims, rest)
		}
		n = 1
		for _, e := range dims {
			n *= e
		}
		vals := make([]float64, n)
		for i := range vals {
			if wide {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			} else {
				vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
			}
		}
		for i := int(zeros) % max(n, 1); i < min(n, int(zeros)%max(n, 1)+int(zeros)); i++ {
			vals[i] = 0
		}
		var d *pressio.Data
		if wide {
			d = pressio.FromFloat64(vals, dims...)
		} else {
			v32 := make([]float32, n)
			for i, v := range vals {
				v32[i] = float32(v)
			}
			d = pressio.FromFloat32(v32, dims...)
		}
		checkAgainstReference(t, "fuzz", d, 1+int(bins)%64)
	})
}
