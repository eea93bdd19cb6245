package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/store"
)

// Probes shared by the traced runs: calls into one layer's exported
// functions, each under a span.

// metricCosts accumulates what the metric plugins cost per item, split by
// invalidation class as Table 2 splits it, and how much of the
// error-agnostic part was spent on cells that had been evaluated before.
type metricCosts struct {
	errdep, erragn []float64 // per item, ms
	agnAll, agnRed float64
}

// runMetrics evaluates the named metric plugins on data, one span each
// (GetMetric + SetOptions + BeginCompress + Results, as the server's
// computeFeatures and bench's observe do), and returns the merged results
// and each plugin's time. seenBefore says the cell's error-agnostic metrics
// were already computed once.
func (mc *metricCosts) runMetrics(rec *recorder, parent, op int, names []string, compressor string, opts pressio.Options,
	data *pressio.Data, seenBefore bool) (pressio.Options, map[string]float64, error) {
	merged := opts.Clone()
	merged.Set(predictors.OptTaoCompressor, compressor)
	merged.Set(predictors.OptKhanCompressor, compressor)
	results := pressio.Options{}
	took := map[string]float64{}
	var dep, agn float64
	for _, name := range names {
		layer := "metrics."
		if name == "khan_surrogate" || name == "jin_model" {
			layer = "predictors." // the surrogates live in internal/predictors
		}
		var m pressio.Metric
		var err error
		took[name] = rec.timed(layer+name, parent, op, func() {
			if m, err = pressio.GetMetric(name); err != nil {
				return
			}
			if err = m.SetOptions(merged); err != nil {
				return
			}
			m.BeginCompress(data)
			results.Merge(m.Results())
		})
		if err != nil {
			return nil, nil, fmt.Errorf("metric %s: %w", name, err)
		}
		if core.StageOf(m) == core.StageErrorAgnostic {
			agn += took[name]
		} else {
			dep += took[name]
		}
	}
	mc.errdep, mc.erragn = append(mc.errdep, dep), append(mc.erragn, agn)
	mc.agnAll += agn
	if seenBefore {
		mc.agnRed += agn
	}
	return results, took, nil
}

// values writes the metric and surrogate medians of the replayed
// operations.
func (mc *metricCosts) values(rec *recorder, v map[string]float64) {
	for _, name := range []string{"stat", "spatial", "entropy", "distortion"} {
		v["metrics."+name+"_ms"] = median(rec.durations("metrics." + name))
	}
	v["predictors.khan_surrogate_ms"] = median(rec.durations("predictors.khan_surrogate"))
	v["predictors.jin_model_ms"] = median(rec.durations("predictors.jin_model"))
	v["metrics.errdep_ms"] = median(mc.errdep)
	v["metrics.erragn_ms"] = median(mc.erragn)
	if mc.agnAll > 0 {
		v["metrics.erragn_redundant_share"] = mc.agnRed / mc.agnAll
	}
}

func pressioBytes(dims []int) int {
	n := 4 // the synthetic fields are float32
	for _, d := range dims {
		n *= d
	}
	return n
}

// observeSpans runs the real compressor once on data (core.ObserveTarget,
// the training stage of Table 2) and records the compress and decompress
// times it reports as spans.
func observeSpans(rec *recorder, parent, op int, compressor string, data *pressio.Data, opts pressio.Options) error {
	_, cms, dms, err := core.ObserveTarget(compressor, data, opts)
	if err != nil {
		return err
	}
	rec.add("compressor."+compressor+".compress", parent, op, time.Duration(cms*float64(time.Millisecond)))
	rec.add("compressor."+compressor+".decompress", parent, op, time.Duration(dms*float64(time.Millisecond)))
	return nil
}

// compressorValues turns the recorded compressor spans into throughput at
// the workload's cell size.
func compressorValues(rec *recorder, v map[string]float64, cellBytes int) {
	mb := float64(cellBytes) / 1e6
	for _, comp := range []string{"sz3", "zfp"} {
		for _, dir := range []string{"compress", "decompress"} {
			if d := median(rec.durationsAll("compressor." + comp + "." + dir)); d > 0 {
				v["compressor."+comp+"."+dir+"_mbps"] = mb / (d / 1e3)
			}
		}
	}
}

// storeProbe times the embedded store from outside on values of the size
// the workload writes: Put (fsynced when the daemon would), a reopen that
// replays them, Get, and the bytes on disk per user byte.
func storeProbe(rec *recorder, dir string, sync bool, values [][]byte, v map[string]float64) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	st.Sync = sync
	user := 0
	keys := make([]string, len(values))
	for i, val := range values {
		keys[i] = fmt.Sprintf("probe/%04d", i)
		user += len(keys[i]) + len(val)
		var perr error
		rec.timed("store.put", 0, 0, func() { perr = st.Put(keys[i], val) })
		if perr != nil {
			st.Close()
			return perr
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	var disk int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			disk += info.Size()
		}
		return nil
	})
	rec.timed("store.open", 0, 0, func() { st, err = store.Open(dir) })
	if err != nil {
		return err
	}
	defer st.Close()
	for _, k := range keys {
		var gerr error
		var ok bool
		rec.timed("store.get", 0, 0, func() { _, ok, gerr = st.Get(k) })
		if gerr != nil || !ok {
			return gerr
		}
	}
	v["store.put_us"] = median(rec.durationsAll("store.put")) * 1e3
	v["store.get_us"] = median(rec.durationsAll("store.get")) * 1e3
	v["store.open_ms"] = median(rec.durationsAll("store.open"))
	v["store.bytes_per_user_byte"] = float64(disk) / float64(user)
	return nil
}
