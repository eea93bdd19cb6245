package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/pressio"
)

// Target values of an observation.
const (
	TargetCR        = "cr"
	TargetBandwidth = "bandwidth"
)

// Observation is one checkpointable unit: every metric result and the
// compressor target for one (field, step, bound, compressor) cell. Its
// gob encoding is the bench's checkpoint record and predictd's
// /v1/observe reply: fields may not be added, renamed or reordered.
type Observation struct {
	Field      string
	Step       int
	Bound      float64
	Compressor string

	Features     map[string]float64
	MetricMS     map[string]float64 // metric name → wall ms
	CR           float64
	CompressMS   float64 // mean over replicates
	DecompressMS float64 // mean over replicates
	ByteSize     int     // uncompressed bytes (for bandwidth targets)
	Replicates   int
}

// BandwidthMBps returns the observed compression throughput.
func (ob *Observation) BandwidthMBps() float64 {
	if ob.CompressMS <= 0 {
		return 0
	}
	return float64(ob.ByteSize) / (1 << 20) / (ob.CompressMS / 1e3)
}

// TargetValue returns the value a scheme predicts under the given target.
func (ob *Observation) TargetValue(target string) float64 {
	if target == TargetBandwidth {
		return ob.BandwidthMBps()
	}
	return ob.CR
}

// Vector returns the observed features in keys order — a scheme's
// Features(), for its predictor.
func (ob *Observation) Vector(keys []string) ([]float64, error) {
	fv := make([]float64, len(keys))
	for i, k := range keys {
		v, ok := ob.Features[k]
		if !ok {
			return nil, fmt.Errorf("core: observation %s/%d missing feature %s", ob.Field, ob.Step, k)
		}
		fv[i] = v
	}
	return fv, nil
}

// MetricUnion is the MetricSet a cell is planned over: no feature
// vector, because an Observation keeps every scalar result.
type MetricUnion []string

func (u MetricUnion) Metrics() []string { return u }
func (MetricUnion) Features() []string  { return nil }

// Cell locates one observation's buffer and says how many compressor
// runs its runtime targets are averaged over; what it is observed under
// — compressor, options, error bound — is the plan's.
type Cell struct {
	Field      string `json:"field"`
	Step       int    `json:"step"`
	Dims       []int  `json:"dims"`
	Replicates int    `json:"replicates"`
}

// ObserveCell computes one cell, the only code that does: its buffer from
// the cache (pinned while the cell runs), the metrics through the plan,
// and the compressor target under the plan's compressor and options.
func ObserveCell(ctx context.Context, cache *dataset.TieredCache, plan *FeaturePlan, c Cell) (*Observation, error) {
	h, err := cache.Acquire(c.Field, c.Step, c.Dims)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	data := h.Data()
	ev, err := plan.EvaluateDetailed(ctx, data)
	if err != nil {
		return nil, err
	}
	bound, _ := plan.opts.GetFloat(pressio.OptAbs)
	ob := &Observation{
		Field: c.Field, Step: c.Step, Bound: bound, Compressor: plan.compressor,
		Features: map[string]float64{},
		MetricMS: ev.MetricMS,
		ByteSize: data.ByteSize(), Replicates: c.Replicates,
	}
	for k := range ev.Results {
		if v, ok := ev.Results.GetFloat(k); ok { // the numeric results
			ob.Features[k] = v
		}
	}
	// runtime observations are nondeterministic: average over replicates
	for r := 0; r < c.Replicates; r++ {
		cr, cms, dms, err := ObserveTarget(plan.compressor, data, plan.opts)
		if err != nil {
			return nil, err
		}
		ob.CR = cr
		ob.CompressMS += cms / float64(c.Replicates)
		ob.DecompressMS += dms / float64(c.Replicates)
	}
	return ob, nil
}

// ObserveRequest is one cell and what it is observed under: a bench
// task's arguments, and the JSON body of predictd's POST /v1/observe.
type ObserveRequest struct {
	Cell
	Bound       float64  `json:"bound"`
	Compressor  string   `json:"compressor"`
	MetricNames []string `json:"metric_names"`
}

// Observe plans the request's metrics on e and observes its cell — what a
// bench driver runs in-process and a predictd node runs for it.
func (r *ObserveRequest) Observe(ctx context.Context, cache *dataset.TieredCache, e *Evaluator) (*Observation, error) {
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, r.Bound)
	plan, err := e.Plan(MetricUnion(r.MetricNames), r.Compressor, opts)
	if err != nil {
		return nil, err
	}
	return ObserveCell(ctx, cache, plan, r.Cell)
}
