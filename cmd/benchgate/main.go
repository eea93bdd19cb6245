// Command benchgate runs the kernel microbenchmarks in bench_kernels_test.go
// and gates them against the committed BENCH_kernels.json baseline.
//
//	benchgate -baseline   re-measure and rewrite BENCH_kernels.json
//	benchgate -check      re-measure and fail on >10% ns/op or allocs/op
//	                      regression against the committed baseline
//
// internal/parallel sizes its worker pool by runtime.NumCPU(), so the
// allocs/op of every fan-out path is a function of the core count. The
// baseline records the count it was written on, and -check compares
// allocs/op only on a machine with the same one; ns/op is always compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/gate"
)

// Measurement is one benchmark's gated metrics.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed BENCH_kernels.json schema.
type Baseline struct {
	Note       string                 `json:"note"`
	GoVersion  string                 `json:"go_version"`
	CPU        string                 `json:"cpu"`
	NumCPU     int                    `json:"num_cpu"`
	BenchTime  string                 `json:"benchtime"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

const (
	baselineFile = "BENCH_kernels.json"
	benchPattern = "^Benchmark(Kernel|Serve)"
	benchTime    = "2s"
	tolerance    = 0.10
)

// benchPackages are the packages the gate measures: the root package's
// kernel microbenchmarks plus internal/serve's hot-path benchmarks
// (BenchmarkServePredictBatch gates the batch item loop's steady-state
// allocs/op at its committed zero, BenchmarkServeBatchHandler a whole
// warm 4004-item request's, decode and encode included, at its few dozen).
var benchPackages = []string{".", "./internal/serve"}

func main() {
	baseline := flag.Bool("baseline", false, "re-measure and rewrite "+baselineFile)
	check := flag.Bool("check", false, "re-measure and compare against "+baselineFile)
	file := flag.String("file", baselineFile, "baseline file path")
	flag.Parse()
	if *baseline == *check {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -baseline or -check is required")
		os.Exit(2)
	}

	results, cpu, err := runBenchmarks()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmarks matched", benchPattern)
		os.Exit(1)
	}

	if *baseline {
		if err := writeBaseline(*file, results, cpu); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(results), *file)
		return
	}

	prev, err := readBaseline(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v (run `make bench-baseline` first)\n", err)
		os.Exit(1)
	}
	rules := []gate.Rule{nsRule}
	if prev.NumCPU == runtime.NumCPU() {
		rules = append(rules, allocsRule)
	} else {
		fmt.Printf("benchgate: allocs/op not compared: %s was written on %d CPUs, this machine has %d (the worker pool is sized by CPU count)\n",
			*file, prev.NumCPU, runtime.NumCPU())
	}
	if failures := compare(prev.Benchmarks, results, rules); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of %s\n", len(results), tolerance*100, *file)
}

// benchLine matches one `go test -bench` result row, e.g.
//
//	BenchmarkKernelSZ3Compress/serial-4   142   8400000 ns/op   164 MB/s   12 B/op   166 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) allocs/op)?`)

// runBenchmarks executes the gated benchmark suites once per package
// and parses the per-benchmark ns/op and allocs/op.
func runBenchmarks() (map[string]Measurement, string, error) {
	results := make(map[string]Measurement)
	cpu := ""
	for _, pkg := range benchPackages {
		pkgCPU, err := runPackage(pkg, results)
		if err != nil {
			return nil, "", err
		}
		if pkgCPU != "" {
			cpu = pkgCPU
		}
	}
	return results, cpu, nil
}

// runPackage benchmarks one package into the shared results map.
func runPackage(pkg string, results map[string]Measurement) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", benchPattern, "-benchtime", benchTime, "-count", "1", pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go test -bench %s failed: %v\n%s", pkg, err, out)
	}
	cpu := ""
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		allocs := 0.0
		if m[3] != "" {
			allocs, _ = strconv.ParseFloat(m[3], 64)
		}
		results[m[1]] = Measurement{NsPerOp: ns, AllocsPerOp: allocs}
	}
	return cpu, nil
}

// The kernel schema's gate: ns/op and allocs/op both regress upward.
// allocs/op gets an absolute slack of one: `go test` prints the truncated
// mean, and a pooled path whose pool a GC cycle empties now and then reads
// N on one run and N+1 on the next (ZFPDecompress/serial: 4 or 5), which a
// relative band alone turns into a failure below ten allocations.
var (
	nsRule     = gate.Rule{Metric: "ns_per_op", Tolerance: tolerance}
	allocsRule = gate.Rule{Metric: "allocs_per_op", Tolerance: tolerance, Slack: 1}
)

// compare returns a description of every benchmark that regressed past
// a rule's tolerance, plus baselined benchmarks that disappeared (a
// deleted benchmark silently ungates its kernel).
func compare(base, cur map[string]Measurement, rules []gate.Rule) []string {
	fails := gate.Compare(toRows(base), toRows(cur), rules)
	out := make([]string, len(fails))
	for i, f := range fails {
		out[i] = f.String()
	}
	return out
}

// toRows projects the kernel schema into the shared gate row form.
func toRows(ms map[string]Measurement) map[string]gate.Row {
	rows := make(map[string]gate.Row, len(ms))
	for name, m := range ms {
		rows[name] = gate.Row{"ns_per_op": m.NsPerOp, "allocs_per_op": m.AllocsPerOp}
	}
	return rows
}

func readBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &b, nil
}

func writeBaseline(path string, results map[string]Measurement, cpu string) error {
	b := &Baseline{
		Note: "Kernel benchmark baseline for `make bench-check` (>10% ns/op or allocs/op " +
			"regression fails). Regenerate with `make bench-baseline` on a quiet machine.",
		GoVersion:  goVersion(),
		CPU:        cpu,
		NumCPU:     runtime.NumCPU(),
		BenchTime:  benchTime,
		Benchmarks: results,
	}
	raw, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
