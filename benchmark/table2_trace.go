package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hurricane"
	"repro/internal/pressio"
	"repro/internal/queue"
)

// metricsFor is the union of the metric plugins the evaluated schemes need
// for one compressor, in name order — what bench observes per cell.
func metricsFor(schemes []string, compressor string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, name := range schemes {
		s, err := core.GetScheme(name)
		if err != nil {
			return nil, err
		}
		if !s.Supports(compressor) {
			continue
		}
		for _, m := range s.Metrics() {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// traceTable2 is the traced run of table2. One untraced round supplies the
// counts and the report columns bench already publishes; then the cell loop
// is rebuilt from exported parts — hurricane.Field, the metric plugins,
// core.ObserveTarget, store.Put — with a span around each call.
func traceTable2(ctx context.Context, rc *runCtx) (*outcome, error) {
	o := newOutcome()
	rec := newRecorder()
	v := o.values
	if _, err := tableWarm(ctx, rc); err != nil {
		return nil, err
	}
	r, err := tableRoundRun(ctx, rc, o, rc.size.tableSteps, min(rc.size.resumes, 10))
	if err != nil {
		return nil, err
	}
	qs := r.cold.QueueStats
	v["bench.collect_s"] = r.collectS
	v["bench.evaluate_s"] = r.evaluateS
	v["bench.resume_ms"] = median(r.resumeMS)
	v["bench.checkpoint_hit_share"] = float64(r.restored) / float64(r.cells)
	v["queue.locality_hit_share"] = float64(qs.LocalityHits) / float64(max(qs.Tasks, 1))
	v["harness.build_s"] = rc.env.info.BuildS
	reportValues(r, v)

	// the cell loop, rebuilt: the (field, step) groups in seeded order, each
	// with its bound × compressor cells back to back as locality places them
	spec := tableSpec(rc, rc.size.tableSteps, "")
	type group struct {
		field string
		step  int
	}
	var groups []group
	for _, f := range fields {
		for s := 0; s < rc.size.tableSteps; s++ {
			groups = append(groups, group{f, s})
		}
	}
	rand.New(rand.NewSource(rc.seed)).Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var values [][]byte
	var costs metricCosts
	deadline := time.Now().Add(rc.size.replayFor)
	op := 0
	for gi, g := range groups {
		if gi >= 2 && time.Now().After(deadline) {
			break
		}
		seen := false
		for _, compressor := range spec.Compressors {
			names, err := metricsFor(spec.Schemes, compressor)
			if err != nil {
				return nil, err
			}
			for _, bound := range spec.Bounds {
				op++
				root := rec.begin("replay.cell", 0, op)
				var data *pressio.Data
				rec.timed("hurricane.synth", root, op, func() { data, err = hurricane.Field(g.field, g.step, spec.Dims) })
				if err != nil {
					return nil, err
				}
				opts := boundOpts(bound)
				results, took, err := costs.runMetrics(rec, root, op, names, compressor, opts, data, seen)
				if err != nil {
					return nil, err
				}
				seen = true // this (field, step) buffer's error-agnostic metrics are now computed
				ob := bench.Observation{Field: g.field, Step: g.step, Bound: bound, Compressor: compressor,
					Features: map[string]float64{}, MetricMS: took}
				for _, k := range results.Keys() {
					if f, ok := results.GetFloat(k); ok {
						ob.Features[k] = f
					}
				}
				if err := observeSpans(rec, root, op, compressor, data, opts); err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(&ob); err != nil {
					return nil, err
				}
				values = append(values, buf.Bytes())
				rec.end(root)
			}
		}
	}

	// the checkpoint store, on records of the size a cell writes; bench
	// leaves Sync off
	dir, err := rc.env.tempDir("store-probe-")
	if err != nil {
		return nil, err
	}
	if err := storeProbe(rec, dir, false, values, v); err != nil {
		return nil, err
	}

	// the queue's own cost per task: the same scheduler over tasks that do
	// nothing
	const idle = 2000
	q := queue.New(queue.Config{Workers: conns()})
	for i := 0; i < idle; i++ {
		if err := q.Add(queue.Task{ID: fmt.Sprint("idle/", i), DataKey: fmt.Sprint(i % 64),
			Run: func(context.Context, int) error { return nil }}); err != nil {
			return nil, err
		}
	}
	perTask := rec.timed("queue.run_idle", 0, 0, func() { q.Run(ctx) }) / idle
	v["queue.task_overhead_us"] = perTask * 1e3

	med := func(name string) float64 { return median(rec.durations(name)) }
	v["hurricane.synth_ms"] = med("hurricane.synth")
	costs.values(rec, v)

	// one cell as the collect run saw it: worker time per cell
	observed := r.collectS * 1e3 * float64(conns()) / float64(r.cells)
	layers := medianByLayer(rec.selfByLayer("replay.cell"))
	delete(layers, "replay")
	layers["store"] = v["store.put_us"] / 1e3
	layers["queue"] = perTask
	sum := 0.0
	for _, ms := range layers {
		sum += ms
	}
	o.layers = layers
	o.op = &opSummary{What: "one observation cell (worker time: collect wall × workers ÷ cells)", Samples: op,
		ObservedMS: observed, SumMS: sum, ResidualMS: observed - sum}
	v["trace.overhead_share"] = (med("replay.cell") - observed) / observed
	o.note("replay", "%d cells rebuilt call by call (budget %v)", op, rc.size.replayFor)
	if rc.spanFile != "" {
		if err := rec.write(rc.spanFile); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// reportValues reads the per-layer numbers bench.Report and the
// observations already carry: the cross-validation fit and inference
// columns (mlkit), compressor throughput, and the paper's headline ratio.
func reportValues(r *tableRound, v map[string]float64) {
	var fit, infer []float64
	ratio := map[string][]float64{} // scheme → per-compressor speed-up
	base := map[string]float64{}    // compressor → compress + decompress ms
	for _, b := range r.report.Baselines {
		base[b.Compressor] = b.Compress.Mean + b.Decompress.Mean
	}
	for _, row := range r.report.Rows {
		if !row.Supported {
			continue
		}
		if row.HasFit {
			fit = append(fit, row.Fit.Mean)
		}
		if row.HasInfer {
			infer = append(infer, row.Infer.Mean*1e3)
		}
		cost := row.ErrDep.Mean + row.ErrAgn.Mean + row.Infer.Mean // absent stages read 0
		if cost > 0 && base[row.Compressor] > 0 {
			ratio[row.Scheme] = append(ratio[row.Scheme], base[row.Compressor]/cost)
		}
	}
	v["mlkit.cv_fit_ms"] = median(fit)
	v["mlkit.cv_predict_us"] = median(infer)
	for scheme, xs := range ratio {
		logSum := 0.0
		for _, x := range xs {
			logSum += math.Log(x)
		}
		v["core.predict_speedup."+scheme] = math.Exp(logSum / float64(len(xs)))
	}
	byComp := map[string][2][]float64{}
	for _, ob := range r.cold.Observations {
		mb := float64(ob.ByteSize) / 1e6
		e := byComp[ob.Compressor]
		e[0] = append(e[0], mb/(ob.CompressMS/1e3))
		e[1] = append(e[1], mb/(ob.DecompressMS/1e3))
		byComp[ob.Compressor] = e
	}
	for comp, e := range byComp {
		v["compressor."+comp+".compress_mbps"] = median(e[0])
		v["compressor."+comp+".decompress_mbps"] = median(e[1])
	}
}
