package predictors

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mlkit"
)

// stateMagic frames serialized predictor state ("predictors:state") so a
// registry can persist it to disk and later validate what it is restoring
// into, instead of feeding bytes from one model family into another.
var stateMagic = [4]byte{'L', 'P', 'P', 'S'}

const stateVersion = 1

// ErrCorruptState marks predictor-state bytes whose envelope is
// malformed: wrong magic, truncated header, or a length field pointing
// past the end of the buffer.
var ErrCorruptState = errors.New("predictors: corrupt state envelope")

// UnknownPredictorError is returned when restoring serialized state whose
// recorded predictor name does not match what the scheme builds today —
// the unknown/renamed-predictor case. Callers get the typed mismatch
// (errors.As) instead of a panic or a silently zero-valued model.
type UnknownPredictorError struct {
	// Stored is the predictor name recorded in the envelope.
	Stored string
	// Want is the predictor name the scheme currently builds ("" when
	// the scheme itself was unknown).
	Want string
	// Scheme is the scheme the state was restored for.
	Scheme string
}

func (e *UnknownPredictorError) Error() string {
	if e.Want == "" {
		return fmt.Sprintf("predictors: state for unknown predictor %q (scheme %q)", e.Stored, e.Scheme)
	}
	return fmt.Sprintf("predictors: state recorded for predictor %q but scheme %q builds %q", e.Stored, e.Scheme, e.Want)
}

// MarshalState wraps a predictor's Save() bytes in a self-describing
// envelope: magic, version, predictor name, state length. The envelope is
// what registries should persist.
func MarshalState(p core.Predictor) ([]byte, error) {
	state, err := p.Save()
	if err != nil {
		return nil, err
	}
	name := p.Name()
	out := make([]byte, 0, 4+1+4+len(name)+4+len(state))
	out = append(out, stateMagic[:]...)
	out = append(out, stateVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(state)))
	out = append(out, state...)
	return out, nil
}

// UnmarshalState splits an envelope into the recorded predictor name and
// raw state bytes, returning ErrCorruptState on framing damage.
func UnmarshalState(b []byte) (name string, state []byte, err error) {
	if len(b) < 9 || [4]byte(b[:4]) != stateMagic {
		return "", nil, ErrCorruptState
	}
	if b[4] != stateVersion {
		return "", nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptState, b[4])
	}
	// each length is compared against the bytes left, never summed: on a
	// 32-bit int a crafted length plus the header wraps
	nameLen := int(binary.LittleEndian.Uint32(b[5:]))
	if nameLen < 0 || nameLen > len(b)-9-4 {
		return "", nil, ErrCorruptState
	}
	name = string(b[9 : 9+nameLen])
	stateLen := int(binary.LittleEndian.Uint32(b[9+nameLen:]))
	off := 9 + nameLen + 4
	if stateLen < 0 || stateLen > len(b)-off {
		return "", nil, ErrCorruptState
	}
	return name, b[off : off+stateLen], nil
}

// RestoreState rebuilds the trained predictor a scheme uses for a
// compressor from envelope bytes. The envelope's recorded predictor name
// must match what the scheme builds; a mismatch — a renamed model family,
// or state produced by a different scheme — yields *UnknownPredictorError
// rather than loading bytes into the wrong model.
func RestoreState(schemeName, compressor string, b []byte) (core.Predictor, error) {
	stored, state, err := UnmarshalState(b)
	if err != nil {
		return nil, err
	}
	scheme, err := core.GetScheme(schemeName)
	if err != nil {
		return nil, &UnknownPredictorError{Stored: stored, Scheme: schemeName}
	}
	p, err := scheme.NewPredictor(compressor)
	if err != nil {
		return nil, err
	}
	if p.Name() != stored {
		return nil, &UnknownPredictorError{Stored: stored, Want: p.Name(), Scheme: schemeName}
	}
	if err := p.Load(state); err != nil {
		return nil, fmt.Errorf("predictors: loading %s state: %w", stored, err)
	}
	return p, nil
}

func init() {
	core.RegisterScheme("krasowska2021", func() core.Scheme { return &krasowskaScheme{} })
	core.RegisterScheme("underwood2023", func() core.Scheme { return &underwoodScheme{} })
	core.RegisterScheme("ganguli2023", func() core.Scheme { return &ganguliScheme{} })
}

// blackBoxSupports: black-box schemes work with any error-bounded
// compressor; the lossless baseline has no error bound but the features
// still apply, so it is accepted too.
func blackBoxSupports(string) bool { return true }

// krasowskaScheme is Krasowska 2021: quantized entropy + local variogram
// fitted with a simple linear regression — the first compressor-internal-
// free (black-box) CR predictor.
type krasowskaScheme struct{}

func (*krasowskaScheme) Name() string { return "krasowska2021" }

func (*krasowskaScheme) Info() core.Info {
	return core.Info{
		Method:   "Krasowska [9]",
		Training: true,
		Sampling: false,
		BlackBox: "yes",
		Goal:     "accurate",
		Metrics:  "CR",
		Approach: "regression",
	}
}

func (*krasowskaScheme) Supports(c string) bool { return blackBoxSupports(c) }

func (*krasowskaScheme) Metrics() []string {
	return []string{"quantized_entropy", "variogram"}
}

func (*krasowskaScheme) Features() []string {
	return []string{"quantized_entropy:bits", "variogram:gamma1", "variogram:slope"}
}

func (*krasowskaScheme) Target() string { return "size:compression_ratio" }

func (*krasowskaScheme) NewPredictor(string) (core.Predictor, error) {
	return &core.ModelPredictor{
		ModelName: "linear_regression",
		Model:     &mlkit.LinearRegression{},
		ClampMin:  1,
	}, nil
}

// underwoodScheme is Underwood 2023: the variogram is exchanged for the
// SVD truncation (global spatial information) and the linear fit for a
// cubic spline regression. Accurate, but the SVD precompute dominates the
// cost, making it best when many predictions amortize one evaluation
// (paper §6).
type underwoodScheme struct{}

func (*underwoodScheme) Name() string { return "underwood2023" }

func (*underwoodScheme) Info() core.Info {
	return core.Info{
		Method:   "Underwood [17]",
		Training: true,
		Sampling: false,
		BlackBox: "yes",
		Goal:     "accurate",
		Metrics:  "CR",
		Approach: "regression",
	}
}

func (*underwoodScheme) Supports(c string) bool { return blackBoxSupports(c) }

func (*underwoodScheme) Metrics() []string {
	return []string{"svd_trunc", "quantized_entropy"}
}

func (*underwoodScheme) Features() []string {
	return []string{"svd_trunc:fraction", "quantized_entropy:bits"}
}

func (*underwoodScheme) Target() string { return "size:compression_ratio" }

func (*underwoodScheme) NewPredictor(string) (core.Predictor, error) {
	return &core.ModelPredictor{
		ModelName: "cubic_spline",
		Model:     &mlkit.SplineRegression{Knots: 5},
		ClampMin:  1,
	}, nil
}

// ganguliScheme is Ganguli 2023: three bespoke spatial metrics
// (correlation, diversity, smoothness) plus coding gain and general
// distortion, fitted with a mixture regression and wrapped in conformal
// prediction for statistically bounded estimates.
type ganguliScheme struct{}

func (*ganguliScheme) Name() string { return "ganguli2023" }

func (*ganguliScheme) Info() core.Info {
	return core.Info{
		Method:   "Ganguli [2]",
		Training: true,
		Sampling: false,
		BlackBox: "yes",
		Goal:     "accurate",
		Metrics:  "CR",
		Approach: "regression",
		Features: "bounded",
	}
}

func (*ganguliScheme) Supports(c string) bool { return blackBoxSupports(c) }

func (*ganguliScheme) Metrics() []string {
	return []string{"spatial", "distortion"}
}

func (*ganguliScheme) Features() []string {
	return []string{
		"spatial:correlation", "spatial:diversity", "spatial:smoothness",
		"spatial:coding_gain", "distortion:general",
	}
}

func (*ganguliScheme) Target() string { return "size:compression_ratio" }

func (*ganguliScheme) NewPredictor(string) (core.Predictor, error) {
	return &core.ModelPredictor{
		ModelName: "conformal_mixture",
		Model: &mlkit.Conformal{
			Base: &mlkit.MixtureRegression{K: 3, Seed: 17},
		},
		ClampMin: 1,
	}, nil
}
