// Package serve is the online prediction-serving subsystem behind the
// predictd daemon: the deployment shape the paper's trained predictors
// (fit/predict with serializable state, indexed by stable opthash keys)
// exist for — fit once against an expensive offline bench run, then
// answer many cheap online queries.
//
// The pieces:
//
//   - a model Registry layered on internal/store persisting trained
//     predictor state (the predictors.MarshalState envelope) keyed by the
//     opthash of the (scheme, compressor options, training-set) tuple,
//     honoring predictors:invalidate semantics: error_dependent- or
//     training-invalidated entries are evicted rather than served stale;
//   - one opthash-keyed LRU of served predictions that single and batch
//     predicts share;
//   - a bounded worker pool that runs every single miss, batch and
//     observation in one slot under its request's context, with
//     queue-depth backpressure (429 + Retry-After from the pool's own
//     task durations when saturated) and per-request deadlines;
//   - per-endpoint/per-scheme counters and latency quantiles (via
//     internal/stats) surfaced on /statz, liveness on /healthz, and
//     graceful drain for SIGTERM shutdown.
package serve

import (
	"fmt"
	"math"

	"repro/internal/pressio"
)

// DataRef names a sample of the synthetic Hurricane dataset to compute
// prediction features from, when a client sends raw-data coordinates
// instead of a precomputed feature vector.
type DataRef struct {
	Field string `json:"field"`
	Step  int    `json:"step"`
	Dims  []int  `json:"dims,omitempty"`
}

// PredictRequest asks for the predicted target metric of a scheme applied
// to a compressor configuration. Exactly one of Features (a precomputed
// feature vector in scheme.Features() order) or Data (a buffer sample to
// compute features from) must be set.
type PredictRequest struct {
	Scheme     string         `json:"scheme"`
	Compressor string         `json:"compressor"`
	Options    map[string]any `json:"options,omitempty"`
	Features   []float64      `json:"features,omitempty"`
	Data       *DataRef       `json:"data,omitempty"`
	// Alpha, when positive, asks for a 1-alpha prediction interval from
	// schemes whose predictors are bounded (core.IntervalPredictor).
	Alpha float64 `json:"alpha,omitempty"`
}

// PredictResponse is the served prediction.
type PredictResponse struct {
	Scheme     string    `json:"scheme"`
	Compressor string    `json:"compressor"`
	Target     string    `json:"target"`
	Prediction float64   `json:"prediction"`
	Interval   []float64 `json:"interval,omitempty"` // [lo, hi] when bounded
	Model      string    `json:"model,omitempty"`    // registry key served from
	Cached     bool      `json:"cached"`
}

// TrainingSpec enumerates the synthetic-dataset cells a fit job observes:
// the cross product of fields × steps × bounds at the given dims.
type TrainingSpec struct {
	Fields []string  `json:"fields"`
	Steps  int       `json:"steps"`
	Dims   []int     `json:"dims,omitempty"`
	Bounds []float64 `json:"bounds"`
}

// FitRequest asks for an asynchronous training job.
type FitRequest struct {
	Scheme     string         `json:"scheme"`
	Compressor string         `json:"compressor"`
	Options    map[string]any `json:"options,omitempty"`
	Training   TrainingSpec   `json:"training"`
}

// FitResponse acknowledges a queued training job. Existing marks an
// idempotent resubmit: the same (scheme, options, training-set) opthash
// was already queued, running, or done, and JobID names that job.
type FitResponse struct {
	JobID    string `json:"job_id"`
	Existing bool   `json:"existing,omitempty"`
}

// InvalidateRequest declares which compressor options or predictors:*
// class keys changed, exactly as core.Session.Invalidate does for the
// in-process flow.
type InvalidateRequest struct {
	Keys []string `json:"keys"`
}

// InvalidateResponse reports what the declaration evicted.
type InvalidateResponse struct {
	EvictedModels []string `json:"evicted_models"`
	ClearedCached int      `json:"cleared_cached"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// optionsFromJSON converts a decoded JSON object into pressio.Options.
// JSON numbers arrive as float64; integral values (within exact-int
// range) are normalized to int64 so integer-typed plugin options
// (e.g. jin:quant_bins) resolve, while GetFloat still accepts them for
// float-typed settings. The rule is deterministic, so cache keys hashed
// from converted options are stable.
func optionsFromJSON(m map[string]any) (pressio.Options, error) {
	opts := pressio.Options{}
	for k, v := range m {
		switch t := v.(type) {
		case bool, string:
			opts.Set(k, t)
		case float64:
			if t == math.Trunc(t) && math.Abs(t) < 1<<53 {
				opts.Set(k, int64(t))
			} else {
				opts.Set(k, t)
			}
		case []any:
			ss := make([]string, len(t))
			for i, e := range t {
				s, ok := e.(string)
				if !ok {
					return nil, fmt.Errorf("option %q: array values must be strings", k)
				}
				ss[i] = s
			}
			opts.Set(k, ss)
		default:
			return nil, fmt.Errorf("option %q: unsupported value type %T", k, v)
		}
	}
	return opts, nil
}
