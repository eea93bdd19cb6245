package bench

import (
	"strings"
	"testing"
)

func ablationSpec() *Spec {
	return &Spec{
		Fields: []string{"P", "U"},
		Steps:  2,
		Dims:   []int{4, 12, 12},
		Bounds: []float64{1e-3},
	}
}

func TestAblationSVD(t *testing.T) {
	out, err := AblationSVD(ablationSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"SVD truncation", "quantized entropy", "ratio"} {
		if !strings.Contains(out, needle) {
			t.Errorf("ablation output missing %q:\n%s", needle, out)
		}
	}
}

func TestAblationJin(t *testing.T) {
	out, err := AblationJin(ablationSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"naive iterator", "optimized iterator", "sz3 compression", "overhead"} {
		if !strings.Contains(out, needle) {
			t.Errorf("ablation output missing %q:\n%s", needle, out)
		}
	}
}

func TestBaselineOnly(t *testing.T) {
	spec := ablationSpec()
	spec.Compressors = []string{"sz3", "zfp"}
	out, err := BaselineOnly(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sz3") || !strings.Contains(out, "zfp") {
		t.Errorf("baseline output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "mean CR") {
		t.Errorf("baseline should report the mean CR:\n%s", out)
	}
}
