package predictors

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/core"
)

// fitKrasowska builds and fits a krasowska2021 predictor on a tiny exact
// linear problem so its serialized state is non-trivial.
func fitKrasowska(t *testing.T) core.Predictor {
	t.Helper()
	scheme, err := core.GetScheme("krasowska2021")
	if err != nil {
		t.Fatal(err)
	}
	p, err := scheme.NewPredictor("sz3")
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {2, 1, 0}, {0, 2, 1}}
	y := []float64{2, 3, 4, 9, 7, 10}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStateRoundTrip(t *testing.T) {
	p := fitKrasowska(t)
	want, err := p.Predict([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	env, err := MarshalState(p)
	if err != nil {
		t.Fatal(err)
	}
	name, _, err := UnmarshalState(env)
	if err != nil {
		t.Fatal(err)
	}
	if name != p.Name() {
		t.Fatalf("envelope name %q, want %q", name, p.Name())
	}
	restored, err := RestoreState("krasowska2021", "sz3", env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Predict([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored prediction %g, want %g", got, want)
	}
}

func TestRestoreStateUnknownPredictorName(t *testing.T) {
	p := fitKrasowska(t)
	env, err := MarshalState(p)
	if err != nil {
		t.Fatal(err)
	}

	// krasowska state restored through underwood2023 (which builds
	// cubic_spline, not linear_regression): typed mismatch, no panic, no
	// silent zero model.
	_, err = RestoreState("underwood2023", "sz3", env)
	var upe *UnknownPredictorError
	if !errors.As(err, &upe) {
		t.Fatalf("want *UnknownPredictorError, got %v", err)
	}
	if upe.Stored != "linear_regression" || upe.Want != "cubic_spline" || upe.Scheme != "underwood2023" {
		t.Fatalf("unexpected error fields: %+v", upe)
	}

	// unknown scheme name (the renamed-scheme case) is also typed
	_, err = RestoreState("krasowska1999", "sz3", env)
	if !errors.As(err, &upe) {
		t.Fatalf("want *UnknownPredictorError for unknown scheme, got %v", err)
	}
	if upe.Stored != "linear_regression" || upe.Scheme != "krasowska1999" {
		t.Fatalf("unexpected error fields: %+v", upe)
	}
}

func TestUnmarshalStateCorrupt(t *testing.T) {
	env, err := MarshalState(fitKrasowska(t))
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(off int, v uint32) []byte {
		b := append([]byte(nil), env...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	nameLen := int(binary.LittleEndian.Uint32(env[5:]))
	cases := map[string][]byte{
		"empty":         nil,
		"short":         {'L', 'P', 'P', 'S', 1},
		"bad magic":     {'X', 'X', 'X', 'X', 1, 0, 0, 0, 0},
		"bad version":   {'L', 'P', 'P', 'S', 9, 0, 0, 0, 0},
		"name overrun":  {'L', 'P', 'P', 'S', 1, 0xff, 0xff, 0, 0},
		"state overrun": {'L', 'P', 'P', 'S', 1, 1, 0, 0, 0, 'x', 0xff, 0xff, 0xff, 0xff},
		// lengths whose sum with the header wraps a 32-bit int (make
		// arch-check runs this with GOARCH=386)
		"name length wraps":  rewrite(5, 0x7ffffff5),
		"state length wraps": rewrite(9+nameLen, 0x7ffffff5),
	}
	for name, b := range cases {
		if _, _, err := UnmarshalState(b); !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: want ErrCorruptState, got %v", name, err)
		}
	}
	if _, err := RestoreState("krasowska2021", "sz3", []byte("garbage")); !errors.Is(err, ErrCorruptState) {
		t.Errorf("RestoreState on garbage: want ErrCorruptState, got %v", err)
	}
}
