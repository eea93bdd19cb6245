// Package scenario is the seeded correctness-under-load harness: a
// scenario file declares a cluster topology, a generated corpus, a
// seeded traffic mix, and SLOs; the harness deploys real predictd
// processes built with -race (the same multi-process machinery the
// cluster kill tests deploy through), replays the mix open-loop through
// the router, scrapes /statz, and returns the run's Metrics for CheckSLO
// to judge. Because the daemons run under the race detector, no latency
// or throughput number from here is committed anywhere: how fast the
// system is, is benchmark/'s question (plain build, saturating loops).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/hurricane"
	"repro/internal/serve"
)

// Topology declares the deployment: predictd replicas behind one router.
type Topology struct {
	// Nodes is the predictd replica count (the router is extra).
	Nodes int `json:"nodes"`
	// ProbeIntervalMS is the router health-probe cadence.
	ProbeIntervalMS int `json:"probe_interval_ms"`
	// PollIntervalMS is the nodes' replication poll cadence.
	PollIntervalMS int `json:"poll_interval_ms"`
}

// Corpus declares the generated hurricane corpus the traffic references:
// fields × steps at dims under a seed, materialized by
// dataset.BuildCorpus with a manifest so reruns reuse it byte-verified.
type Corpus struct {
	Fields []string `json:"fields"`
	Steps  int      `json:"steps"`
	Dims   []int    `json:"dims"`
	Seed   uint64   `json:"seed"`
}

// Cells is the number of distinct (field, step) predict targets.
func (c Corpus) Cells() int { return len(c.Fields) * c.Steps }

// Traffic declares the seeded open-loop request mix the driver offers.
type Traffic struct {
	Scheme     string `json:"scheme"`
	Compressor string `json:"compressor"`
	// PredictPct, FitPct, InvalidatePct is the mix in percent (sum 100).
	PredictPct    float64 `json:"predict_pct"`
	FitPct        float64 `json:"fit_pct"`
	InvalidatePct float64 `json:"invalidate_pct"`
	// TargetQPS is the offered open-loop arrival rate (Poisson).
	TargetQPS float64 `json:"target_qps"`
	// WarmupS/SteadyS split the run: warmup fills caches unmeasured,
	// steady is the measured window.
	WarmupS float64 `json:"warmup_s"`
	SteadyS float64 `json:"steady_s"`
	// Seed drives the arrival process and per-op choices; two runs of
	// the same scenario offer the identical request schedule.
	Seed int64 `json:"seed"`
	// FitSteps and Bounds shape each fit job's training spec (1 field ×
	// FitSteps × len(Bounds) cells at the corpus dims). Bounds[0] is
	// also the predict error-bound option.
	FitSteps int       `json:"fit_steps"`
	Bounds   []float64 `json:"bounds"`
	// InvalidateKeys is what invalidate requests declare changed. Keys
	// the scheme does not depend on exercise the full invalidation path
	// without evicting the serving model (a CI-stable mix); keys it does
	// depend on force refit churn (a stress mix).
	InvalidateKeys []string `json:"invalidate_keys"`
	// BatchPct is the share of predict operations issued against
	// /v1/predict/batch, in percent of predict traffic. A batched op
	// still counts as one arrival in the Poisson process; it carries
	// BatchSizes-many predictions in one request.
	BatchPct float64 `json:"batch_pct"`
	// BatchSizes is the batch-size distribution: each batched op draws
	// its size uniformly from this list (seeded, like every other draw).
	BatchSizes []int `json:"batch_sizes,omitempty"`
}

// SLO is the absolute pass/fail envelope on the measured steady window.
type SLO struct {
	MaxP50MS     float64 `json:"max_p50_ms"`
	MaxP99MS     float64 `json:"max_p99_ms"`
	MaxErrorRate float64 `json:"max_error_rate"`
	MaxRSSBytes  int64   `json:"max_rss_bytes"`
}

// Scenario is one declarative macro-benchmark.
type Scenario struct {
	Name     string   `json:"name"`
	Topology Topology `json:"topology"`
	Corpus   Corpus   `json:"corpus"`
	Traffic  Traffic  `json:"traffic"`
	SLO      SLO      `json:"slo"`
}

// Load reads and validates a scenario file. Decoding is strict: a field
// the harness does not know is an error naming it, so a knob nothing
// reads cannot sit in a committed file looking like a gate.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return &s, nil
}

// Validate rejects scenarios the harness cannot run or whose results
// would be meaningless.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("name required")
	}
	if s.Topology.Nodes < 2 {
		// -node requires peers: replicated mode is the whole point of a
		// system scenario, so single-node topologies are rejected
		return fmt.Errorf("topology.nodes %d < 2", s.Topology.Nodes)
	}
	if s.Topology.ProbeIntervalMS < 1 || s.Topology.PollIntervalMS < 1 {
		return fmt.Errorf("probe/poll intervals must be >= 1ms")
	}
	if len(s.Corpus.Fields) == 0 {
		return fmt.Errorf("corpus.fields empty")
	}
	known := map[string]bool{}
	for _, f := range hurricane.FieldNames {
		known[f] = true
	}
	for _, f := range s.Corpus.Fields {
		if !known[f] {
			return fmt.Errorf("corpus field %q is not a hurricane field", f)
		}
	}
	if s.Corpus.Steps < 1 || s.Corpus.Steps > hurricane.Timesteps {
		return fmt.Errorf("corpus.steps %d outside [1, %d]", s.Corpus.Steps, hurricane.Timesteps)
	}
	if len(s.Corpus.Dims) != 3 {
		return fmt.Errorf("corpus.dims %v: want 3 dims", s.Corpus.Dims)
	}
	for _, d := range s.Corpus.Dims {
		if d < 1 {
			return fmt.Errorf("corpus.dims %v: non-positive dim", s.Corpus.Dims)
		}
	}
	t := s.Traffic
	if t.Scheme == "" || t.Compressor == "" {
		return fmt.Errorf("traffic.scheme and traffic.compressor required")
	}
	if sum := t.PredictPct + t.FitPct + t.InvalidatePct; sum < 99.999 || sum > 100.001 {
		return fmt.Errorf("traffic mix sums to %v, want 100", sum)
	}
	if t.PredictPct < 0 || t.FitPct < 0 || t.InvalidatePct < 0 {
		return fmt.Errorf("negative traffic percentage")
	}
	if t.TargetQPS <= 0 {
		return fmt.Errorf("traffic.target_qps %v <= 0", t.TargetQPS)
	}
	if t.WarmupS < 0 || t.SteadyS <= 0 {
		return fmt.Errorf("traffic needs steady_s > 0 and warmup_s >= 0")
	}
	if t.FitPct > 0 && (t.FitSteps < 1 || len(t.Bounds) == 0) {
		return fmt.Errorf("fit traffic needs fit_steps >= 1 and bounds")
	}
	if len(t.Bounds) == 0 {
		return fmt.Errorf("traffic.bounds empty (bounds[0] is the predict error bound)")
	}
	if t.InvalidatePct > 0 && len(t.InvalidateKeys) == 0 {
		return fmt.Errorf("invalidate traffic needs invalidate_keys")
	}
	if t.BatchPct < 0 || t.BatchPct > 100 {
		return fmt.Errorf("traffic.batch_pct %v outside [0, 100]", t.BatchPct)
	}
	if t.BatchPct > 0 {
		if len(t.BatchSizes) == 0 {
			return fmt.Errorf("batch traffic needs batch_sizes")
		}
		for _, n := range t.BatchSizes {
			if n < 1 || n > serve.MaxBatchItems {
				return fmt.Errorf("batch size %d outside [1, %d]", n, serve.MaxBatchItems)
			}
		}
	}
	if s.SLO.MaxP50MS <= 0 || s.SLO.MaxP99MS <= 0 || s.SLO.MaxRSSBytes <= 0 {
		return fmt.Errorf("slo must declare positive max_p50_ms, max_p99_ms, max_rss_bytes")
	}
	if s.SLO.MaxErrorRate < 0 || s.SLO.MaxErrorRate > 1 {
		return fmt.Errorf("slo.max_error_rate %v outside [0, 1]", s.SLO.MaxErrorRate)
	}
	return nil
}
