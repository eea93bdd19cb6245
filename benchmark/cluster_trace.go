package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/hurricane"
)

// clusterValues fills the cluster layer's metrics from the traced window's
// writer log and router headers, probes what the write path leans on
// (compressor, store) from outside, and walks the rate ladder.
func (p *servePlan) clusterValues(ctx context.Context, rc *runCtx, m *measured, o *outcome) error {
	v := o.values
	v["cluster.fit_ack_ms"] = median(m.fits.ackMS)
	v["cluster.fit_ready_s"] = median(m.fits.readyS)
	v["cluster.repl_lag_ms"] = median(m.fits.lagMS)
	total := 0
	for _, n := range m.servedBy {
		total += n
	}
	if total > 0 {
		v["cluster.owner_share"] = float64(m.servedBy[m.owner]) / float64(total)
	}

	// a fit observes each training cell with a real compressor run
	rec := newRecorder()
	dims := m.in.sz.hotDims[:]
	for _, c := range []cell{{"P", 0}, {"P", 1}, {"U", 0}, {"U", 1}} {
		data, err := hurricane.Field(c.field, c.step, dims)
		if err != nil {
			return err
		}
		for _, comp := range []string{"sz3", "zfp"} {
			if err := observeSpans(rec, 0, 0, comp, data, boundOpts(m.in.fitBounds[0])); err != nil {
				return err
			}
		}
	}
	compressorValues(rec, v, pressioBytes(dims))

	// a published model is one store record of about this size, fsynced
	var models []struct {
		StateBytes int `json:"state_bytes"`
	}
	if err := m.d.getJSON(ctx, m.d.nodes[0].base+"/v1/models", &models); err != nil {
		return err
	}
	size := 4096
	if len(models) > 0 {
		size = models[0].StateBytes
	}
	dir, err := rc.env.tempDir("store-probe-")
	if err != nil {
		return err
	}
	values := make([][]byte, 16)
	rng := rand.New(rand.NewSource(rc.seed))
	for i := range values {
		values[i] = make([]byte, size)
		rng.Read(values[i])
	}
	if err := storeProbe(rec, dir, true, values, v); err != nil {
		return err
	}

	v["serve.max_rate_ok"] = p.ladder(ctx, rc, m, o)
	return nil
}

// ladder sends the read mix open-loop at rising rates and returns the
// highest rate that kept p95 within 25 ms, failed at most one request in a
// thousand and left no growing backlog. It judges the system, not the run:
// its requests are not counted as attempted.
func (p *servePlan) ladder(ctx context.Context, rc *runCtx, m *measured, o *outcome) float64 {
	gen := p.ops(p, m.in, m.d.base, m.expect)
	best := 0.0
	for _, rate := range rc.size.ladder {
		rng := rand.New(rand.NewSource(rc.stream()))
		due := arrivals(rng, rate, rc.size.ladderStep)
		reqs := make([]*request, len(due))
		for i := range reqs {
			reqs[i] = gen(rng)
		}
		var lat, early, late []float64
		failed := 0
		for _, s := range openLoop(ctx, m.d.client, due, reqs) {
			if s.err != nil {
				failed++
				continue
			}
			lat = append(lat, ms(s.lat))
			if s.at < rc.size.ladderStep/2 {
				early = append(early, ms(s.late))
			} else {
				late = append(late, ms(s.late))
			}
		}
		p95 := quantile(lat, 0.95)
		backlog := quantile(late, 0.95)
		growing := backlog > 5 && backlog > 2*quantile(early, 0.95)
		ok := len(lat) > 0 && p95 <= 25 && float64(failed) <= 0.001*float64(len(reqs)) && !growing
		o.note(fmt.Sprintf("ladder.%04.0f", rate), "rate %.0f/s: %d sent, %d failed, p95 %.3f ms, p95 lateness %.3f ms, ok=%v", rate, len(reqs), failed, p95, backlog, ok)
		if !ok || ctx.Err() != nil {
			break
		}
		best = rate
	}
	return best
}
