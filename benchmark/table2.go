package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
)

// tableSpec is the Table-2 run of one round: all 13 fields, two compressors,
// the paper's two bounds nudged by the seed, the three schemes the paper
// ports, five folds. Every round and every resume run uses its own copy
// (bench fills defaults in place).
func tableSpec(rc *runCtx, steps int, storeDir string) *bench.Spec {
	rng := rand.New(rand.NewSource(rc.seed))
	return &bench.Spec{
		Fields:      fields,
		Steps:       steps,
		Dims:        rc.size.cellDims[:],
		Compressors: []string{"sz3", "zfp"},
		Bounds:      []float64{1e-6 * (1 + 0.5*rng.Float64()), 1e-4 * (1 + 0.5*rng.Float64())},
		Schemes:     []string{"khan2023", "jin2022", "rahman2023"},
		Folds:       5,
		Workers:     conns(),
		StoreDir:    storeDir,
		Seed:        rc.seed,
	}
}

// tableRound is one measured round: a cold collection into a fresh store,
// the evaluation, and the resume runs against the filled store.
type tableRound struct {
	cells     int
	collectS  float64
	evaluateS float64
	resumeMS  []float64
	restored  int // cells the last resume run took from the checkpoint store
	cold      *bench.CollectResult
	report    *bench.Report
}

// medapes lists the report's MedAPE column in row order.
func medapes(r *bench.Report) []float64 {
	var out []float64
	for _, row := range r.Rows {
		if row.HasMedAPE {
			out = append(out, row.MedAPE)
		}
	}
	return out
}

func tableRoundRun(ctx context.Context, rc *runCtx, o *outcome, steps, resumes int) (*tableRound, error) {
	dir, err := rc.env.tempDir("table2-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &tableRound{}

	spec := tableSpec(rc, steps, dir)
	start := time.Now()
	r.cold, err = bench.CollectDetailed(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("cold collect: %w", err)
	}
	r.collectS = time.Since(start).Seconds()
	r.cells = len(fields) * steps * len(spec.Bounds) * len(spec.Compressors)
	o.check(len(r.cold.Observations) == r.cells && len(r.cold.Failed) == 0,
		"cold collect: %d observations and %d failed cells, want %d and 0", len(r.cold.Observations), len(r.cold.Failed), r.cells)

	start = time.Now()
	r.report, err = bench.Evaluate(spec, r.cold.Observations)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	r.evaluateS = time.Since(start).Seconds()
	want := medapes(r.report)
	finite := len(want) > 0
	for _, v := range want {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	o.check(finite, "MedAPE column %v is not all finite", want)

	for i := 0; i < resumes; i++ {
		spec := tableSpec(rc, steps, dir)
		start := time.Now()
		res, err := bench.CollectDetailed(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		r.resumeMS = append(r.resumeMS, ms(time.Since(start)))
		r.restored = res.QueueStats.Skipped
		o.check(res.QueueStats.Skipped == r.cells && len(res.Observations) == r.cells,
			"resume restored %d of %d cells from the checkpoint store", res.QueueStats.Skipped, r.cells)
		if i == 0 {
			// the restored observations must reproduce the cold table
			rep, err := bench.Evaluate(spec, res.Observations)
			if err != nil {
				return nil, fmt.Errorf("evaluate after resume: %w", err)
			}
			got := medapes(rep)
			same := len(got) == len(want)
			for j := range got {
				same = same && got[j] == want[j]
			}
			o.check(same, "MedAPE after resume %v differs from the cold run's %v", got, want)
		}
	}
	return r, ctx.Err()
}

// tableWarm is table2's set-up: one small collect-and-evaluate, which
// registers the plugins, faults in the code and warms the allocator.
func tableWarm(ctx context.Context, rc *runCtx) (float64, error) {
	start := time.Now()
	spec := tableSpec(rc, 1, "")
	spec.Bounds = spec.Bounds[:1]
	obs, err := bench.Collect(ctx, spec)
	if err != nil {
		return 0, err
	}
	if _, err := bench.Evaluate(spec, obs); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// runTable2 repeats rounds until the window is used up (at least
// sizing.rounds) and reports the good-side quartile over rounds (see
// goodSide; a run has a couple of dozen rounds, too few for the tenth the
// serving workloads take over their slices): ok_per_s is cells per second
// of the cold collection, p50_ms the median resume run of a round.
func runTable2(ctx context.Context, rc *runCtx) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	for i := 0; i < rc.size.reps; i++ {
		s, err := tableWarm(ctx, rc)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, s)
	}
	var rate, p50, eval []float64
	start := time.Now()
	for n := 0; n < rc.size.rounds || time.Since(start) < rc.window; n++ {
		r, err := tableRoundRun(ctx, rc, o, rc.size.tableSteps, rc.size.resumes)
		if err != nil {
			return nil, err
		}
		rate = append(rate, float64(r.cells)/r.collectS)
		eval = append(eval, r.evaluateS)
		p50 = append(p50, quantile(r.resumeMS, 0.50))
	}
	o.slices = map[string][]float64{"setup_s": setups, "ok_per_s": rate, "p50_ms": p50, "evaluate_s": eval}
	o.values["setup_s"] = median(setups)
	o.values["ok_per_s"] = goodSide(rate, 0.25, false)
	o.values["p50_ms"] = goodSide(p50, 0.25, true)
	o.values["max_rss_mb"] = vmHWMMiB("self")
	o.note("samples", "%d rounds of %d cells and %d resume runs; ok_per_s and p50_ms are the good-side quartile over rounds, setup_s the median of %d warm-ups",
		len(rate), len(fields)*rc.size.tableSteps*4, rc.size.resumes, len(setups))
	o.note("evaluate_s", "%.4f (median over rounds; per-layer metric bench.evaluate_s)", median(eval))
	return o, nil
}
