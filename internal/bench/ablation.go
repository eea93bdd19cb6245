package bench

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/hurricane"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// AblationSVD reproduces the §6 discussion of Underwood 2023: its
// error-dependent metric (quantized entropy) is cheap, but the
// error-agnostic SVD truncation precompute dominates (the paper reports
// ~43 ms vs ~771 ms), making the scheme best when one evaluation
// amortizes over many predictions. Returns a small report of the two
// stage costs measured on `reps` fields.
func AblationSVD(spec *Spec, reps int) (string, error) {
	spec.defaults()
	if reps <= 0 {
		reps = 8
	}
	var svdMS, qentMS []float64
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, spec.Bounds[0])
	for i := 0; i < reps; i++ {
		field := spec.Fields[i%len(spec.Fields)]
		data, err := hurricane.Field(field, i%spec.Steps, spec.Dims)
		if err != nil {
			return "", err
		}
		svd, err := timeMetric("svd_trunc", opts, data)
		if err != nil {
			return "", err
		}
		qent, err := timeMetric("quantized_entropy", opts, data)
		if err != nil {
			return "", err
		}
		svdMS = append(svdMS, svd)
		qentMS = append(qentMS, qent)
	}
	svdStat := summarize(svdMS)
	qentStat := summarize(qentMS)
	var b bytes.Buffer
	fmt.Fprintf(&b, "Underwood 2023 stage-cost ablation (dims %v, %d reps)\n", spec.Dims, reps)
	fmt.Fprintf(&b, "  error-dependent (quantized entropy): %s ms\n", fmtMS(qentStat))
	fmt.Fprintf(&b, "  error-agnostic  (SVD truncation):    %s ms\n", fmtMS(svdStat))
	fmt.Fprintf(&b, "  ratio: %.1fx — the SVD precompute dominates; suited to amortized use\n",
		svdStat.Mean/qentStat.Mean)
	return b.String(), nil
}

// timeMetric returns the wall ms of one freshly configured metric plugin
// over data: ablations measure plugins raw, outside any plan or memo.
func timeMetric(name string, opts pressio.Options, data *pressio.Data) (float64, error) {
	m, err := pressio.GetMetric(name)
	if err != nil {
		return 0, err
	}
	if err := m.SetOptions(opts); err != nil {
		return 0, err
	}
	start := now()
	m.BeginCompress(data)
	return now().Sub(start).Seconds() * 1e3, nil
}

// AblationJin reproduces the §6 iterator finding: the Jin model's
// error-dependent time exceeds the compressor's own runtime because of
// per-element overhead in the multi-dimensional iterator (shared-pointer
// churn in the profiled C++; per-step allocation here, asked for with
// jin:fast_iterator=false), and the optimized path — sz3's row stage, what
// jin_model serves with — closes the gap. Returns the three timings on
// `reps` fields.
func AblationJin(spec *Spec, reps int) (string, error) {
	spec.defaults()
	if reps <= 0 {
		reps = 8
	}
	var naiveMS, fastMS, compressMS []float64
	for i := 0; i < reps; i++ {
		field := spec.Fields[i%len(spec.Fields)]
		data, err := hurricane.Field(field, i%spec.Steps, spec.Dims)
		if err != nil {
			return "", err
		}
		opts := pressio.Options{}
		opts.Set(pressio.OptAbs, spec.Bounds[0])

		iterOpts := opts.Clone()
		iterOpts.Set(predictors.OptJinFastIterator, false)
		naive, err := timeMetric("jin_model", iterOpts, data)
		if err != nil {
			return "", err
		}
		iterOpts.Set(predictors.OptJinFastIterator, true)
		fast, err := timeMetric("jin_model", iterOpts, data)
		if err != nil {
			return "", err
		}
		naiveMS = append(naiveMS, naive)
		fastMS = append(fastMS, fast)

		_, c, _, err := core.ObserveTarget("sz3", data, opts)
		if err != nil {
			return "", err
		}
		compressMS = append(compressMS, c)
	}
	n := summarize(naiveMS)
	f := summarize(fastMS)
	c := summarize(compressMS)
	var b bytes.Buffer
	fmt.Fprintf(&b, "Jin 2022 iterator ablation (dims %v, %d reps)\n", spec.Dims, reps)
	fmt.Fprintf(&b, "  jin_model, naive iterator:     %s ms (%.2fx of compression)\n", fmtMS(n), n.Mean/c.Mean)
	fmt.Fprintf(&b, "  jin_model, optimized iterator: %s ms (%.2fx of compression)\n", fmtMS(f), f.Mean/c.Mean)
	fmt.Fprintf(&b, "  sz3 compression:               %s ms\n", fmtMS(c))
	fmt.Fprintf(&b, "  iterator overhead: %.2fx — the §6 profiling finding; the optimized\n", n.Mean/f.Mean)
	fmt.Fprintf(&b, "  path is the paper's future-work item (3)\n")
	return b.String(), nil
}

// BaselineOnly measures just the compressor baseline rows of Table 2.
func BaselineOnly(spec *Spec) (string, error) {
	spec.defaults()
	var b bytes.Buffer
	for _, compressor := range spec.Compressors {
		var cms, dms, crs []float64
		for i, field := range spec.Fields {
			data, err := hurricane.Field(field, i%spec.Steps, spec.Dims)
			if err != nil {
				return "", err
			}
			opts := pressio.Options{}
			opts.Set(pressio.OptAbs, spec.Bounds[0])
			cr, c, d, err := core.ObserveTarget(compressor, data, opts)
			if err != nil {
				return "", err
			}
			cms = append(cms, c)
			dms = append(dms, d)
			crs = append(crs, cr)
		}
		fmt.Fprintf(&b, "%-10s compress %s ms   decompress %s ms   mean CR %.2f\n",
			compressor, fmtMS(summarize(cms)), fmtMS(summarize(dms)), stats.Mean(crs))
	}
	return b.String(), nil
}
