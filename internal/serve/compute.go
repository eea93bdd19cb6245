package serve

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/pressio"
)

// maxElements bounds the data buffers a request may ask the server to
// synthesize and scan (backpressure against accidental giant dims).
const maxElements = 1 << 22

// checkDims validates request dims and applies the element budget.
func checkDims(dims []int) error {
	if len(dims) == 0 {
		return fmt.Errorf("dims required")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("dims must be positive, got %v", dims)
		}
		if n > maxElements/d {
			return fmt.Errorf("dims %v exceed the %d-element budget", dims, maxElements)
		}
		n *= d
	}
	return nil
}

// defaultDataDims keeps data-backed predict requests cheap when the
// client does not pick a grid.
var defaultDataDims = []int{16, 16, 16}

// runFit executes one training job: observe every (field, step, bound)
// cell through core.ObserveCell — data through the tiered dataset cache,
// so repeated fits over the same hurricane fields (and any concurrent
// predicts) share buffers and skip regeneration; the error-agnostic
// metrics once per cell, however many bounds the fit observes it at; the
// target from a real compressor run — fit the predictor, and publish the
// model to the registry.
func (s *Server) runFit(ctx context.Context, job *FitJob, req *FitRequest, opts pressio.Options, scheme core.Scheme) error {
	tr := req.Training
	key := ModelKey(req.Scheme, req.Compressor, opts, tr)
	if prev, ok := s.registry.Get(key); ok {
		// a model for this exact opthash already landed — from a crashed
		// run whose publish survived, or an identical earlier fit. Adopt
		// it instead of training again: publish-once per opthash is what
		// keeps at-least-once journal replay from ever installing two
		// divergent models under one key.
		job.setModel(prev)
		return nil
	}
	dims := tr.Dims
	if len(dims) == 0 {
		dims = defaultDataDims
	}
	var x [][]float64
	var y []float64
	for _, field := range tr.Fields {
		for step := 0; step < tr.Steps; step++ {
			for _, bound := range tr.Bounds {
				if err := ctx.Err(); err != nil {
					return err
				}
				cellOpts := opts.Clone()
				cellOpts.Set(pressio.OptAbs, bound)
				plan, err := s.features.Plan(scheme, req.Compressor, cellOpts)
				if err != nil {
					return err
				}
				ob, err := core.ObserveCell(ctx, s.data, plan, core.Cell{Field: field, Step: step, Dims: dims, Replicates: 1})
				if err != nil {
					return err
				}
				features, err := ob.Vector(scheme.Features())
				if err != nil {
					return err
				}
				x = append(x, features)
				y = append(y, ob.CR)
			}
		}
	}
	p, err := scheme.NewPredictor(req.Compressor)
	if err != nil {
		return err
	}
	if err := p.Fit(x, y); err != nil {
		return err
	}
	state, err := predictors.MarshalState(p)
	if err != nil {
		return err
	}
	if prev, ok := s.registry.Get(key); ok {
		// the model landed while we were training — replicated from an
		// adopter that re-ran the same job. Adopt it rather than publishing
		// a duplicate.
		job.setModel(prev)
		return nil
	}
	entry := &ModelEntry{
		Key:           key,
		Scheme:        req.Scheme,
		Compressor:    req.Compressor,
		PredictorName: p.Name(),
		Target:        scheme.Target(),
		Features:      scheme.Features(),
		Samples:       len(x),
		State:         state,
	}
	if err := s.registry.Put(entry); err != nil {
		return err
	}
	job.setModel(entry)
	return nil
}
