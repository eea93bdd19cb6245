// Command predict-bench is LibPressio-Predict-Bench: it schedules metric
// and compressor observations over a locality-aware task queue with
// checkpoint/restart, cross-validates the prediction schemes, and prints
// the paper's evaluation artifacts.
//
// Usage:
//
//	predict-bench -table2                      # the full Table-2 run
//	predict-bench -table2 -store ./ckpt -v    # checkpointed, verbose
//	predict-bench -baseline                    # compressor baselines only
//	predict-bench -ablation svd                # Underwood SVD-cost ablation
//	predict-bench -ablation jin                # Jin iterator ablation
//	predict-bench -table2 -remote http://host:8080   # cells observed by predictd
//	predict-bench -table1                      # Table 1, then the scheme registry
//	predict-bench -corpus ./hurricane          # write the dataset as .f32 files
//
// -remote names one predictd base URL: a node, or a `predictd -router`
// whose ring keeps each (field, step) buffer on one node of a fleet and
// routes around a dead one. Each cell is one POST /v1/observe; the
// checkpoint, retries and timeouts stay this process's.
//
// Scale knobs: -fields, -steps, -dims, -bounds, -schemes, -folds,
// -workers. Defaults reproduce the paper's setup (13 fields × 48
// timesteps, bounds 1e-6 and 1e-4, SZ3 + ZFP, 10-fold CV) on the
// synthetic Hurricane grid.
//
// -corpus materializes the synthetic Hurricane dataset to disk as raw
// .f32 files in the naming convention the folder loader parses, standing
// in for downloading the Hurricane Isabel binaries. It honors -fields,
// -steps, -dims and -seed (the corpus seed: 0, the default, is the
// canonical dataset predictd synthesizes) and writes a MANIFEST.json of
// the generator inputs and every file's size and SHA-256, so a corpus is
// byte-reproducible and a re-run (or the scenario harness) verifies and
// reuses it instead of regenerating.
//
// Resilience knobs: -task-timeout bounds each observation attempt,
// -retries sets the per-task retry budget, and -fault-plan scripts
// deterministic failures (see package faultinject) for drills. SIGINT
// or SIGTERM cancels the run gracefully: finished cells stay
// checkpointed and the command prints how to resume.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/hurricane"
	"repro/internal/pressio"
)

func main() {
	var (
		table2      = flag.Bool("table2", false, "run the Table-2 evaluation (default action)")
		baseline    = flag.Bool("baseline", false, "measure compressor baselines only")
		ablation    = flag.String("ablation", "", "run an ablation: svd | jin")
		table1      = flag.Bool("table1", false, "print the Table-1 taxonomy and the scheme registry, then exit")
		corpus      = flag.String("corpus", "", "write the synthetic dataset as .f32 files + manifest to this directory, then exit")
		fields      = flag.String("fields", "", "comma-separated Hurricane fields (default all 13)")
		steps       = flag.Int("steps", 0, "timesteps (default 48)")
		dims        = flag.String("dims", "", "grid dims ZxYxX (default 32x64x64)")
		bounds      = flag.String("bounds", "", "comma-separated abs bounds (default 1e-6,1e-4)")
		schemes     = flag.String("schemes", "", "comma-separated schemes (default khan2023,jin2022,rahman2023)")
		folds       = flag.Int("folds", 0, "cross-validation folds (default 10)")
		workers     = flag.Int("workers", 0, "queue workers (default 4)")
		storeDir    = flag.String("store", "", "checkpoint directory (enables restart)")
		inSample    = flag.Bool("insample", false, "in-sample CV (paper future-work #1) instead of out-of-sample grouping")
		target      = flag.String("target", "cr", "prediction target: cr | bandwidth (future-work #4)")
		reps        = flag.Int("replicates", 0, "compressor-run replicates per cell for runtime targets (default 1)")
		remote      = flag.String("remote", "", "observe cells at this predictd base URL (a node, or a -router over a fleet) instead of in-process")
		taskTimeout = flag.Duration("task-timeout", 0, "per-task attempt deadline, e.g. 30s (0 = none)")
		retries     = flag.Int("retries", 0, "per-task retry budget (default 2, -1 for none)")
		faultPlan   = flag.String("fault-plan", "", "fault-injection script, inline or @file (resilience drills)")
		seed        = flag.Int64("seed", 0, "seed for folds, backoff jitter, and fault injection (default 1); with -corpus, the corpus seed (default 0, the canonical one)")
		format      = flag.String("format", "table", "table2 output format: table | csv")
		scatter     = flag.String("scatter", "", "emit predicted-vs-actual CSV for scheme,compressor (e.g. rahman2023,sz3)")
		storeInfo   = flag.String("store-info", "", "summarize a checkpoint directory and exit")
		verbose     = flag.Bool("v", false, "print per-task progress")
	)
	flag.Parse()

	spec := &bench.Spec{
		Steps:       *steps,
		Folds:       *folds,
		Workers:     *workers,
		StoreDir:    *storeDir,
		InSample:    *inSample,
		Target:      *target,
		Replicates:  *reps,
		TaskTimeout: *taskTimeout,
		Retries:     *retries,
		Seed:        *seed,
		Remote:      *remote,
	}
	if *fields != "" {
		spec.Fields = cliutil.ParseList(*fields)
	}
	if *schemes != "" {
		spec.Schemes = cliutil.ParseList(*schemes)
	}
	if *dims != "" {
		d, err := cliutil.ParseDims(*dims)
		if err != nil {
			fatal(err)
		}
		spec.Dims = d
	}
	if *bounds != "" {
		b, err := cliutil.ParseBounds(*bounds)
		if err != nil {
			fatal(err)
		}
		spec.Bounds = b
	}
	if *faultPlan != "" {
		text := *faultPlan
		if strings.HasPrefix(text, "@") {
			raw, err := os.ReadFile(text[1:])
			if err != nil {
				fatal(err)
			}
			text = string(raw)
		}
		planSeed := uint64(*seed)
		if planSeed == 0 {
			planSeed = 1
		}
		plan, err := faultinject.Parse(planSeed, text)
		if err != nil {
			fatal(err)
		}
		spec.FaultPlan = plan
	}
	if *verbose {
		spec.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	// graceful shutdown: the first SIGINT/SIGTERM cancels the run
	// context — in-flight cells finish or are abandoned, completed cells
	// stay checkpointed, the store is flushed on the way out; a second
	// signal falls back to default handling and kills the process.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "\npredict-bench: interrupted — draining (send again to kill)")
		cancel()
		signal.Stop(sigc)
	}()

	switch {
	case *table1:
		fmt.Print(bench.Table1())
		printSchemes()
	case *corpus != "":
		if *seed < 0 {
			fatal(fmt.Errorf("-seed %d: a corpus seed is not negative", *seed))
		}
		fieldList, n, dimList := spec.Fields, spec.Steps, spec.Dims
		if fieldList == nil {
			fieldList = hurricane.FieldNames
		}
		if n <= 0 {
			n = hurricane.Timesteps
		}
		if dimList == nil {
			dimList = hurricane.DefaultDims
		}
		m, cached, err := dataset.BuildCorpus(*corpus, fieldList, n, dimList, uint64(*seed))
		if err != nil {
			fatal(err)
		}
		if cached {
			fmt.Printf("reusing %d files (%.1f MiB) in %s (manifest verified)\n",
				len(m.Entries), float64(m.TotalBytes())/(1<<20), *corpus)
		} else {
			fmt.Printf("wrote %d files (%.1f MiB) to %s (seed %d, manifest %s)\n",
				len(m.Entries), float64(m.TotalBytes())/(1<<20), *corpus, *seed, dataset.ManifestName)
		}
	case *storeInfo != "":
		out, err := bench.StoreInfo(*storeInfo)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *scatter != "":
		parts := cliutil.ParseList(*scatter)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-scatter wants scheme,compressor"))
		}
		res, err := bench.CollectDetailed(ctx, spec)
		if err != nil {
			reportInterrupted(ctx, spec)
			fatal(err)
		}
		reportInterrupted(ctx, spec)
		out, err := bench.Scatter(spec, parts[0], parts[1], res.Observations)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *baseline:
		out, err := bench.BaselineOnly(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *ablation == "svd":
		out, err := bench.AblationSVD(spec, 8)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *ablation == "jin":
		out, err := bench.AblationJin(spec, 8)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case *ablation != "":
		fatal(fmt.Errorf("unknown ablation %q (want svd or jin)", *ablation))
	default:
		_ = table2 // the default action
		report, err := bench.Run(ctx, spec)
		if err != nil {
			// an interrupted run can leave too few cells for evaluation;
			// the checkpoint is still intact, so say how to resume
			reportInterrupted(ctx, spec)
			fatal(err)
		}
		reportInterrupted(ctx, spec)
		if *format == "csv" {
			fmt.Print(report.CSV())
		} else {
			fmt.Print(report.Table2())
		}
	}
}

// printSchemes lists every registered scheme with its metrics, features,
// target and supported compressors.
func printSchemes() {
	for _, name := range core.SchemeNames() {
		s, err := core.GetScheme(name)
		if err != nil {
			continue
		}
		info := s.Info()
		if info.Method == "" {
			continue
		}
		var supported []string
		for _, comp := range pressio.CompressorNames() {
			if s.Supports(comp) {
				supported = append(supported, comp)
			}
		}
		fmt.Printf("%s (%s)\n", name, info.Method)
		fmt.Printf("  approach:    %s (%s)\n", info.Approach, info.Goal)
		fmt.Printf("  metrics:     %s\n", strings.Join(s.Metrics(), ", "))
		fmt.Printf("  features:    %s\n", strings.Join(s.Features(), ", "))
		fmt.Printf("  target:      %s\n", s.Target())
		fmt.Printf("  compressors: %s\n", strings.Join(supported, ", "))
		if info.Features != "" {
			fmt.Printf("  extras:      %s\n", info.Features)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predict-bench:", err)
	os.Exit(1)
}

// reportInterrupted tells the user how to resume after a cancelled run.
func reportInterrupted(ctx context.Context, spec *bench.Spec) {
	if ctx.Err() == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "predict-bench: run interrupted; results below cover completed cells only")
	if spec.StoreDir != "" {
		fmt.Fprintf(os.Stderr, "predict-bench: checkpoint flushed — resume with the same flags and -store %s\n", spec.StoreDir)
	} else {
		fmt.Fprintln(os.Stderr, "predict-bench: tip: run with -store DIR to make interrupted runs resumable")
	}
}
