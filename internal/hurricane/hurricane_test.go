package hurricane

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

var testDims = []int{8, 16, 16}

func TestFieldValidation(t *testing.T) {
	if _, err := Field("CLOUD", -1, testDims); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := Field("CLOUD", Timesteps, testDims); err == nil {
		t.Error("out-of-range step accepted")
	}
	if _, err := Field("NOPE", 0, testDims); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Field("CLOUD", 0, []int{4, 4}); err == nil {
		t.Error("2-D dims accepted")
	}
	// a negative dim used to panic in makeslice, a zero one to return an
	// empty buffer, an overflowing product to index past a wrapped length
	for _, dims := range [][]int{{-1, 4, 4}, {0, 4, 4}, {4, 4, 0}, {1 << 30, 1 << 30, 1 << 30}} {
		d, err := Field("TC", 0, dims)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(dims)) {
			t.Errorf("dims %v: got %v, %v; want an error naming the dims", dims, d, err)
		}
	}
}

func TestAllFieldsGenerate(t *testing.T) {
	for _, f := range FieldNames {
		d, err := Field(f, 10, testDims)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if d.Len() != 8*16*16 {
			t.Errorf("%s: wrong size %d", f, d.Len())
		}
		for i := 0; i < d.Len(); i++ {
			v := d.At(i)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: non-finite value at %d", f, i)
				break
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate("U", 5, testDims)
	b := Generate("U", 5, testDims)
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatal("generator is not deterministic")
		}
	}
}

func TestFieldsDiffer(t *testing.T) {
	a := Generate("U", 5, testDims)
	b := Generate("V", 5, testDims)
	same := 0
	for i := 0; i < a.Len(); i++ {
		if a.At(i) == b.At(i) {
			same++
		}
	}
	if same > a.Len()/10 {
		t.Errorf("U and V identical at %d of %d points", same, a.Len())
	}
}

func TestTimestepsDiffer(t *testing.T) {
	a := Generate("P", 0, testDims)
	b := Generate("P", 24, testDims)
	same := 0
	for i := 0; i < a.Len(); i++ {
		if a.At(i) == b.At(i) {
			same++
		}
	}
	if same > a.Len()/10 {
		t.Errorf("timesteps 0 and 24 identical at %d of %d points", same, a.Len())
	}
}

func TestSparseFieldsAreSparse(t *testing.T) {
	for _, f := range FieldNames {
		d := Generate(f, 24, testDims) // peak intensity
		xs := stats.Float64Run(d, 0, d.Len(), nil)
		sp := stats.Sparsity(xs, 0)
		if IsSparse(f) {
			if sp < 0.3 {
				t.Errorf("%s: sparsity %.2f, want > 0.3 (sparse species)", f, sp)
			}
			if sp > 0.999 {
				t.Errorf("%s: sparsity %.3f — field is empty at peak intensity", f, sp)
			}
		} else if sp > 0.3 {
			t.Errorf("%s: sparsity %.2f, want < 0.3 (dense field)", f, sp)
		}
	}
}

func TestDenseFieldsAreSmooth(t *testing.T) {
	// pressure should be far smoother than vertical velocity
	sp := stats.SpatialOf(Generate("P", 24, testDims)).Smoothness
	sw := stats.SpatialOf(Generate("W", 24, testDims)).Smoothness
	if sp < 0.9 {
		t.Errorf("P smoothness = %.3f, want > 0.9", sp)
	}
	if sp <= sw {
		t.Errorf("P (%.3f) should be smoother than W (%.3f)", sp, sw)
	}
}

func TestPressureRangeIsPhysical(t *testing.T) {
	p := Generate("P", 0, testDims)
	lo, hi := p.Range()
	if lo < 0 || hi > 1100 {
		t.Errorf("pressure range [%v, %v] outside plausible hPa values", lo, hi)
	}
	if hi-lo < 100 {
		t.Errorf("pressure range %v too flat (no vertical gradient?)", hi-lo)
	}
}

func TestIntensityEvolves(t *testing.T) {
	// storm winds should peak mid-sequence
	peak, start := Generate("V", 24, testDims), Generate("V", 0, testDims)
	speak := stats.Std(stats.Float64Run(peak, 0, peak.Len(), nil))
	sstart := stats.Std(stats.Float64Run(start, 0, start.Len(), nil))
	if speak <= sstart {
		t.Errorf("wind variability should peak mid-storm: t24=%.2f t0=%.2f", speak, sstart)
	}
}

func TestIsSparseCoversAllFields(t *testing.T) {
	sparse := 0
	for _, f := range FieldNames {
		if IsSparse(f) {
			sparse++
		}
	}
	if sparse != 7 {
		t.Errorf("expected 7 sparse species, got %d", sparse)
	}
	if IsSparse("P") {
		t.Error("P must not be sparse")
	}
}

func TestFieldSeededZeroIsCanonical(t *testing.T) {
	a, err := Field("P", 7, testDims)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FieldSeeded("P", 7, testDims, 0)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Float32(), b.Float32()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("seed 0 diverges from canonical Field at %d: %v vs %v", i, av[i], bv[i])
		}
	}
}

func TestFieldSeededDeterministic(t *testing.T) {
	a, _ := FieldSeeded("TC", 3, testDims, 42)
	b, _ := FieldSeeded("TC", 3, testDims, 42)
	av, bv := a.Float32(), b.Float32()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("same seed, different value at %d", i)
		}
	}
}

func TestFieldSeededPerturbsDenseFields(t *testing.T) {
	a, _ := FieldSeeded("P", 7, testDims, 0)
	b, _ := FieldSeeded("P", 7, testDims, 1)
	av, bv := a.Float32(), b.Float32()
	diff := 0
	for i := range av {
		if av[i] != bv[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed 1 is byte-identical to seed 0 on a dense field")
	}
	// the seed perturbs small-scale noise only: the large-scale physics
	// (hydrostatic pressure profile) must survive, so means stay close
	ma := stats.Mean(stats.Float64Run(a, 0, a.Len(), nil))
	mb := stats.Mean(stats.Float64Run(b, 0, b.Len(), nil))
	if math.Abs(ma-mb) > 5 {
		t.Errorf("seeds shifted the mean pressure too far: %.2f vs %.2f", ma, mb)
	}
}
