package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one entry of the benchmark's metric catalogue. The same
// catalogue drives what a run emits, what the self-test requires, and what
// BENCHMARK.json declares (the self-test checks the two agree).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what an "operation" and a "request" are
// on each workload. The bounds are the widest the driver takes: the host
// this runs on drifts by a tenth or two over minutes (results/spread.txt),
// and a tighter bound there rejects the neighbours, not the change.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ok_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"max_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists the traced run's metrics, layer = package under internal/.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"hurricane.synth_ms", "ms", "lower", 0},

	{"dataset.acquire_mem_us", "us", "lower", 0},
	{"dataset.acquire_spill_us", "us", "lower", 0},
	{"dataset.mem_hit_share", "ratio", "higher", 0},
	{"dataset.spill_hit_share", "ratio", "lower", 0},
	{"dataset.regen_share", "ratio", "lower", 0},
	{"dataset.evictions", "count", "lower", 0},
	{"dataset.resident_mb", "MiB", "lower", 0},

	{"stats.summary_ms", "ms", "lower", 0},

	{"metrics.stat_ms", "ms", "lower", 0},
	{"metrics.spatial_ms", "ms", "lower", 0},
	{"metrics.entropy_ms", "ms", "lower", 0},
	{"metrics.distortion_ms", "ms", "lower", 0},
	{"metrics.errdep_ms", "ms", "lower", 0},
	{"metrics.erragn_ms", "ms", "lower", 0},
	{"metrics.erragn_redundant_share", "ratio", "lower", 0},

	{"predictors.khan_surrogate_ms", "ms", "lower", 0},
	{"predictors.jin_model_ms", "ms", "lower", 0},
	{"predictors.predict_us", "us", "lower", 0},
	{"predictors.restore_ms", "ms", "lower", 0},
	{"predictors.fit_ms", "ms", "lower", 0},

	{"mlkit.cv_fit_ms", "ms", "lower", 0},
	{"mlkit.cv_predict_us", "us", "lower", 0},

	{"compressor.sz3.compress_mbps", "MB/s", "higher", 0},
	{"compressor.sz3.decompress_mbps", "MB/s", "higher", 0},
	{"compressor.zfp.compress_mbps", "MB/s", "higher", 0},
	{"compressor.zfp.decompress_mbps", "MB/s", "higher", 0},

	{"core.predict_speedup.khan2023", "ratio", "higher", 0},
	{"core.predict_speedup.jin2022", "ratio", "higher", 0},
	{"core.predict_speedup.rahman2023", "ratio", "higher", 0},

	{"opthash.combine_us", "us", "lower", 0},

	{"store.put_us", "us", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.bytes_per_user_byte", "ratio", "lower", 0},

	{"queue.task_overhead_us", "us", "lower", 0},
	{"queue.locality_hit_share", "ratio", "higher", 0},
	{"bench.collect_s", "s", "lower", 0},
	{"bench.evaluate_s", "s", "lower", 0},
	{"bench.resume_ms", "ms", "lower", 0},
	{"bench.checkpoint_hit_share", "ratio", "higher", 0},

	{"serve.decode_us", "us", "lower", 0},
	{"serve.encode_us", "us", "lower", 0},
	{"serve.handler_hit_us", "us", "lower", 0},
	{"serve.handler_miss_ms", "ms", "lower", 0},
	{"serve.self_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.batch_item_ns", "ns", "lower", 0},
	{"serve.cache_hit_share", "ratio", "higher", 0},
	{"serve.cell_hit_share", "ratio", "higher", 0},
	{"serve.coalesced_share", "ratio", "higher", 0},
	{"serve.rejected_share", "ratio", "lower", 0},
	{"serve.gc_pause_p99_ms", "ms", "lower", 0},
	{"serve.heap_mb", "MiB", "lower", 0},
	{"serve.p95_ms", "ms", "lower", 0},
	{"serve.p99_ms", "ms", "lower", 0},
	{"serve.max_rate_ok", "1/s", "higher", 0},

	{"cluster.router_hop_us", "us", "lower", 0},
	{"cluster.fit_ack_ms", "ms", "lower", 0},
	{"cluster.fit_ready_s", "s", "lower", 0},
	{"cluster.repl_lag_ms", "ms", "lower", 0},
	{"cluster.owner_share", "ratio", "higher", 0},

	{"harness.build_s", "s", "lower", 0},
	{"harness.late_p95_ms", "ms", "lower", 0},
	{"harness.fail_share", "ratio", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// outcome is what one workload run hands back: counts for the result line
// and values for the metrics of its mode.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few, for the report
	values    map[string]float64
	notes     map[string]string
	slices    map[string][]float64 // untraced: the per-slice (per-round, per-set-up) values behind each reported one
	layers    map[string]float64   // traced: Σ self time per layer of one op, ms
	op        *opSummary
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]string{}, slices: map[string][]float64{}}
}

// fail records one failed operation or correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records it when it does not hold.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) note(key, format string, args ...any) {
	o.notes[key] = fmt.Sprintf(format, args...)
}

// report projects the outcome onto the catalogue of its mode: every
// declared metric is present, a layer the workload did not touch reads 0.
func (o *outcome) report(workload string, traced bool, seed int64, seconds int) runReport {
	defs := endToEnd
	if traced {
		defs = perLayer
		if o.attempted > 0 {
			o.values["harness.fail_share"] = float64(o.failed) / float64(o.attempted)
		}
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s is not finite", d.name)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return runReport{
		Workload: workload, Traced: traced, Seed: seed, Seconds: seconds,
		Result: res, Notes: o.notes, Failures: o.failures, Slices: o.slices, Layers: o.layers, Op: o.op,
	}
}

// quantile is the nearest-rank quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
