package predictors

import (
	"repro/internal/core"
	"repro/internal/mlkit"
)

func init() {
	core.RegisterScheme("rahman2023", func() core.Scheme { return &rahmanScheme{} })
}

// rahmanScheme is Rahman 2023 (FXRZ): cheap error-agnostic dataset
// features — including the sparsity fraction behind the sparsity
// correction factor the paper credits for its win on Hurricane — plus the
// error-bound-derived general distortion, fed to a random forest whose
// training set is enlarged by interpolation-based data augmentation.
type rahmanScheme struct{}

func (*rahmanScheme) Name() string { return "rahman2023" }

func (*rahmanScheme) Info() core.Info {
	return core.Info{
		Method:   "Rahman [13]",
		Training: true,
		Sampling: true,
		BlackBox: "partial",
		Goal:     "fast",
		Metrics:  "various",
		Approach: "machine learning",
	}
}

func (*rahmanScheme) Supports(c string) bool { return blackBoxSupports(c) }

// Metrics implements core.Scheme. All feature metrics except the trivial
// distortion lookup are error-agnostic, which is why Table 2 shows FXRZ
// with per-prediction cost almost entirely in the error-agnostic stage.
func (*rahmanScheme) Metrics() []string {
	return []string{"stat", "spatial", "entropy", "distortion"}
}

func (*rahmanScheme) Features() []string {
	return []string{
		"stat:range", "stat:std", "stat:sparsity",
		"spatial:correlation", "spatial:smoothness", "spatial:coding_gain",
		"entropy:shannon", "distortion:general",
	}
}

func (*rahmanScheme) Target() string { return "size:compression_ratio" }

func (*rahmanScheme) NewPredictor(string) (core.Predictor, error) {
	return &rahmanPredictor{
		core.ModelPredictor{
			ModelName: "random_forest",
			Model:     &mlkit.RandomForest{Trees: 60, MaxDepth: 12, Seed: 23},
			ClampMin:  1,
		},
	}, nil
}

// rahmanPredictor augments the training set by interpolation before
// fitting the forest — FXRZ's device for cutting the number of real
// compressor runs required for training.
type rahmanPredictor struct {
	core.ModelPredictor
}

// Fit implements core.Predictor with FXRZ data augmentation.
func (p *rahmanPredictor) Fit(x [][]float64, y []float64) error {
	ax, ay := mlkit.AugmentByInterpolation(x, y, 2, 29)
	return p.ModelPredictor.Fit(ax, ay)
}

// SurveyedInfo returns the Table-1 rows for the methods the paper surveys
// but which are not ported to the framework (Lu 2018's Gaussian-process
// models and Qin 2020's deep neural networks rely on compressor-internal
// training corpora we have no analogue for); bench.Table1 merges them with
// the implemented registry so the regenerated Table 1 covers all ten rows.
func SurveyedInfo() []core.Info {
	return []core.Info{
		{Method: "Lu [11]", Training: true, Sampling: true, BlackBox: "no",
			Goal: "accurate", Metrics: "CR", Approach: "regression"},
		{Method: "Qin [12]", Training: true, Sampling: true, BlackBox: "no",
			Goal: "accurate", Metrics: "CR", Approach: "deep learning"},
	}
}
