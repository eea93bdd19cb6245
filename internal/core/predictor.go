package core

import (
	"encoding"
	"fmt"

	"repro/internal/mlkit"
)

// IdentityPredictor returns one feature unchanged — the "simple" predictor
// module the paper provides for methods whose prediction IS the value of a
// metric (no training stage), like Tao/Khan/Jin.
type IdentityPredictor struct {
	// Index selects which feature is the prediction (default 0).
	Index int
}

// Name implements Predictor.
func (p *IdentityPredictor) Name() string { return "identity" }

// Trains implements Predictor.
func (p *IdentityPredictor) Trains() bool { return false }

// Fit implements Predictor as a no-op.
func (p *IdentityPredictor) Fit([][]float64, []float64) error { return nil }

// Predict implements Predictor.
func (p *IdentityPredictor) Predict(features []float64) (float64, error) {
	if p.Index < 0 || p.Index >= len(features) {
		return 0, fmt.Errorf("core: identity predictor index %d out of range (%d features)", p.Index, len(features))
	}
	return features[p.Index], nil
}

// Save implements Predictor (stateless).
func (p *IdentityPredictor) Save() ([]byte, error) { return []byte{}, nil }

// Load implements Predictor (stateless).
func (p *IdentityPredictor) Load([]byte) error { return nil }

// ModelPredictor adapts any mlkit.Model (which must also implement binary
// (un)marshalling) to the Predictor interface — the trained-predictor
// module backed by the Go model kit instead of the paper's embedded
// Python interpreter.
type ModelPredictor struct {
	// ModelName labels the underlying model family.
	ModelName string
	// Model is the regressor; it must implement
	// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler.
	Model mlkit.Model

	// ClampMin floors predictions (compression ratios are ≥ 1; linear
	// extrapolation can dip below). Disabled when 0.
	ClampMin float64

	fitted bool
}

// Name implements Predictor.
func (p *ModelPredictor) Name() string { return p.ModelName }

// Trains implements Predictor.
func (p *ModelPredictor) Trains() bool { return true }

// Fit implements Predictor.
func (p *ModelPredictor) Fit(x [][]float64, y []float64) error {
	if err := p.Model.Fit(x, y); err != nil {
		return err
	}
	p.fitted = true
	return nil
}

// Predict implements Predictor.
func (p *ModelPredictor) Predict(x []float64) (float64, error) {
	v, err := p.Model.Predict(x)
	if err != nil {
		return 0, err
	}
	if p.ClampMin > 0 && v < p.ClampMin {
		v = p.ClampMin
	}
	return v, nil
}

// Save implements Predictor via the model's binary marshaller.
func (p *ModelPredictor) Save() ([]byte, error) {
	m, ok := p.Model.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: model %s is not serializable", p.ModelName)
	}
	return m.MarshalBinary()
}

// Load implements Predictor.
func (p *ModelPredictor) Load(b []byte) error {
	m, ok := p.Model.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("core: model %s is not serializable", p.ModelName)
	}
	if err := m.UnmarshalBinary(b); err != nil {
		return err
	}
	p.fitted = true
	return nil
}

// IntervalPredictor is implemented by predictors that can bound their
// estimates — the "bounded" capability of Table 1 (Ganguli 2023) that
// lets the HDF5 parallel-write use case forecast its misprediction rate
// instead of guessing a safety factor.
type IntervalPredictor interface {
	Predictor
	// PredictInterval returns the point prediction with an interval
	// covering the truth with probability ≥ 1-alpha.
	PredictInterval(features []float64, alpha float64) (pred, lo, hi float64, err error)
}

// PredictInterval implements IntervalPredictor when the underlying model
// supports intervals (mlkit.Conformal); otherwise it returns a degenerate
// interval at the point prediction.
func (p *ModelPredictor) PredictInterval(features []float64, alpha float64) (pred, lo, hi float64, err error) {
	if c, ok := p.Model.(*mlkit.Conformal); ok {
		pred, lo, hi, err = c.PredictInterval(features, alpha)
		if err != nil {
			return 0, 0, 0, err
		}
		if p.ClampMin > 0 {
			if pred < p.ClampMin {
				pred = p.ClampMin
			}
			if lo < p.ClampMin {
				lo = p.ClampMin
			}
			if hi < p.ClampMin {
				hi = p.ClampMin
			}
		}
		return pred, lo, hi, nil
	}
	pred, err = p.Predict(features)
	if err != nil {
		return 0, 0, 0, err
	}
	return pred, pred, pred, nil
}

// SlicingPredictor is implemented by predictors that can read their
// trained model, with every feature but one held, as a step function of
// that one — a bound sweep over one buffer, whose features differ in the
// error-dependent one alone (FeaturePlan.DependentFeature), then costs a
// lookup a prediction instead of a model walk.
type SlicingPredictor interface {
	Predictor
	// Slice reads the predictor at features as a function of feature
	// j: At(v) is Predict(features with [j] = v), bit for bit. False
	// when the model cannot be read so; the caller predicts instead.
	Slice(features []float64, j int) (FeatureSlice, bool)
}

// FeatureSlice is a predictor read as a step function of one feature.
type FeatureSlice struct {
	forest   mlkit.ForestSlice
	clampMin float64
}

// At is the prediction with the sliced feature at v.
func (s *FeatureSlice) At(v float64) float64 {
	pred := s.forest.At(v)
	if s.clampMin > 0 && pred < s.clampMin {
		pred = s.clampMin
	}
	return pred
}

// Slice implements SlicingPredictor for a random forest (mlkit's
// RandomForest.Slice), floored at ClampMin after the lookup as Predict
// floors; any other model reports false.
func (p *ModelPredictor) Slice(features []float64, j int) (FeatureSlice, bool) {
	f, ok := p.Model.(*mlkit.RandomForest)
	if !ok {
		return FeatureSlice{}, false
	}
	s, ok := f.Slice(features, j)
	return FeatureSlice{forest: s, clampMin: p.ClampMin}, ok
}
