// Command benchmark is the repository's one yardstick: four gated workloads
// and two diagnostic ones, four end-to-end metrics, and a traced run that
// attributes time to each layer under internal/. It builds cmd/predictd itself (plain, never -race),
// drives it from this one process with at most nproc connections, checks
// every answer, and prints each metric by name with its unit. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --seed 1 --trace 1 --out results/seed1   # every workload
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh layers results/seed1.json > benchmark/LAYERS.md
//	bash benchmark/run.sh describe > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// result is the last line of standard output, the shape BENCHMARK.json's
// driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is one workload run as the -out file records it: the result
// line plus what a reader needs to trust it (sample counts, the first
// failures, every per-slice value behind a reported median).
type runReport struct {
	Workload string               `json:"workload"`
	Traced   bool                 `json:"traced"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Result   result               `json:"result"`
	Notes    map[string]string    `json:"notes,omitempty"`
	Failures []string             `json:"failures,omitempty"`
	Slices   map[string][]float64 `json:"slices,omitempty"`
	Layers   map[string]float64   `json:"layer_self_ms,omitempty"`
	Op       *opSummary           `json:"op,omitempty"`
}

// report is the -out file: the environment the numbers were taken in and
// one runReport per workload × traced/untraced.
type report struct {
	Env  envInfo     `json:"env"`
	Runs []runReport `json:"runs"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "layers":
			os.Exit(layersMain(os.Args[2:]))
		case "describe":
			fmt.Print(describe())
			return
		}
	}
	var (
		root     = flag.String("root", os.Getenv("BENCHMARK_ROOT"), "repository root (run.sh sets it; default: the directory above this package)")
		name     = flag.String("workload", "", "run one workload and end standard output with its JSON result (default: every workload)")
		seed     = flag.Int64("seed", 1, "seed for request order, error bounds, cell sampling and Spec.Seed")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		out      = flag.String("out", "", "write the full report to <out>.json and spans to <out>.<workload>.spans.jsonl")
		toy      = flag.Bool("toy", false, "toy sizes (8x8x8 cells), for the self-test")
		bothRuns = flag.Bool("both", false, "without -workload: run every workload untraced and traced")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds must be within 1..60")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env, err := prepare(ctx, *root)
	if err != nil {
		fatalf("%v", err)
	}
	// every exit path below runs env.close, which kills each child and
	// removes the run directory
	code := run(ctx, env, *name, *seed, *seconds, *trace == 1, *bothRuns, *out, *toy)
	env.close()
	os.Exit(code)
}

func run(ctx context.Context, env *environment, name string, seed int64, seconds int, traced, both bool, out string, toy bool) int {
	size := fullSize
	if toy {
		size = toySize
	}
	var todo []*workload
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q (have %v)\n", name, workloadNames())
			return 2
		}
		todo = []*workload{w}
	} else {
		todo = workloads
	}
	modes := []bool{traced}
	if both && name == "" {
		modes = []bool{false, true}
	}

	rep := report{Env: env.info}
	code := 0
	var last result
	for _, w := range todo {
		for _, tr := range modes {
			rc := &runCtx{env: env, seed: seed, window: time.Duration(seconds) * time.Second, size: size}
			if tr && out != "" {
				rc.spanFile = fmt.Sprintf("%s.%s.spans.jsonl", out, w.name)
			}
			var o *outcome
			var err error
			if tr {
				o, err = w.trace(ctx, rc)
			} else {
				o, err = w.run(ctx, rc)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			rr := o.report(w.name, tr, seed, seconds)
			rep.Runs = append(rep.Runs, rr)
			printRun(&rr)
			last = rr.Result
			if !rr.Result.Correct {
				code = 1
			}
		}
	}
	if out != "" {
		if err := writeJSONFile(out+".json", rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if name != "" {
		// the driver's mode: a run that completed ends with its result line
		// and exit code 0; wrong answers show as "correct": false
		line, _ := json.Marshal(last)
		fmt.Println(string(line))
		return 0
	}
	return code
}

// printRun lists every metric of one run by name with its unit.
func printRun(rr *runReport) {
	mode := "untraced"
	if rr.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %d s): attempted %d, failed %d, correct %v\n",
		rr.Workload, mode, rr.Seed, rr.Seconds, rr.Result.Attempted, rr.Result.Failed, rr.Result.Correct)
	names := make([]string, 0, len(rr.Result.Metrics))
	for n := range rr.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rr.Result.Metrics[n]
		fmt.Printf("  %-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range rr.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runSeconds is the length of the measured window BENCHMARK.json asks the
// driver for.
const runSeconds = 24

// describe renders BENCHMARK.json from the workload list and the metric
// catalogue, so the declaration cannot drift from what the harness emits.
func describe() string {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	decl := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if w.gated {
			decl.Workloads = append(decl.Workloads, named{w.name, w.why})
		}
	}
	for _, d := range endToEnd {
		bound := d.bound
		decl.EndToEnd = append(decl.EndToEnd, metric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	raw, _ := json.MarshalIndent(decl, "", "  ")
	return string(raw) + "\n"
}
