// Command scenariobench runs one declarative scenario against a real
// multi-process deployment and judges it against the scenario's SLOs.
//
//	scenariobench -scenario scenarios/smoke.json
//
// The scenario file declares everything: topology (N predictd replicas +
// router), corpus (hurricane fields × steps, manifest-cached), seeded
// traffic mix, and SLOs. The daemons are built with -race, so the
// numbers printed say whether the run was healthy, not how fast the
// system is; that is what `bash benchmark/run.sh` measures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario JSON file (required)")
		bin          = flag.String("bin", "", "prebuilt predictd binary (default: build one)")
		corpusDir    = flag.String("corpus-dir", "", "corpus cache directory (default: per-scenario under the OS temp dir)")
	)
	flag.Parse()
	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "scenariobench: -scenario is required")
		os.Exit(2)
	}
	violations, err := run(*scenarioPath, *bin, *corpusDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenariobench:", err)
		os.Exit(1)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "scenariobench: FAIL SLO:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// run deploys and drives one scenario and returns its SLO violations.
func run(scenarioPath, bin, corpusDir string) ([]string, error) {
	sc, err := scenario.Load(scenarioPath)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if bin == "" {
		buildDir, err := os.MkdirTemp("", "scenariobench-bin-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(buildDir)
		fmt.Println("scenariobench: building predictd (race-enabled)...")
		if bin, err = scenario.BuildPredictd(ctx, ".", buildDir); err != nil {
			return nil, err
		}
	}
	workDir, err := os.MkdirTemp("", "scenariobench-"+sc.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	if corpusDir == "" {
		// a stable per-scenario path so the manifest-verified corpus
		// survives across runs
		corpusDir = filepath.Join(os.TempDir(), "scenariobench-corpus", sc.Name)
	}

	fmt.Printf("scenariobench: running %s (%d nodes, %.0f qps, %.0fs warmup + %.0fs steady)\n",
		sc.Name, sc.Topology.Nodes, sc.Traffic.TargetQPS, sc.Traffic.WarmupS, sc.Traffic.SteadyS)
	m, err := scenario.Run(ctx, sc, scenario.RunConfig{Bin: bin, WorkDir: workDir, CorpusDir: corpusDir})
	if err != nil {
		return nil, err
	}
	fmt.Printf("scenariobench: measured %s\n", m)
	violations := scenario.CheckSLO(m, sc.SLO)
	if len(violations) == 0 {
		fmt.Printf("scenariobench: %s within its SLOs\n", sc.Name)
	}
	return violations, nil
}
