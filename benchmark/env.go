package main

import (
	"bufio"
	"context"
	"debug/buildinfo"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// envInfo is recorded in every report, so two result files can be told
// apart (and refused as incomparable) by more than their numbers.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Predictd   string  `json:"predictd_build"`
	BuildS     float64 `json:"build_s"`
}

// environment is everything a run owns on disk and in the process table:
// the repository root, the predictd binary built from it, one run
// directory that holds all state, and every child process.
type environment struct {
	root string
	bin  string
	dir  string // <root>/.bench_build/run-<pid>, removed by close
	info envInfo

	mu    sync.Mutex
	procs []*proc
}

// conns is the number of keep-alive connections and worker goroutines the
// load generators use: the core count, and never more than four.
func conns() int { return min(runtime.NumCPU(), 4) }

// prepare locates the repository, builds cmd/predictd from it and refuses
// a build the numbers could not be trusted on.
func prepare(ctx context.Context, root string) (*environment, error) {
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root = wd
		if filepath.Base(wd) == "benchmark" {
			root = filepath.Dir(wd)
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "predictd")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %v", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	env := &environment{
		root: root,
		bin:  filepath.Join(build, "bin", "predictd"),
		dir:  filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())),
	}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		return nil, err
	}

	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", env.bin, "./cmd/predictd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		env.close()
		return nil, fmt.Errorf("building predictd: %v\n%s", err, out)
	}
	env.info.BuildS = time.Since(start).Seconds()

	bi, err := buildinfo.ReadFile(env.bin)
	if err != nil {
		env.close()
		return nil, fmt.Errorf("reading predictd build info: %v", err)
	}
	settings := map[string]string{}
	for _, s := range bi.Settings {
		settings[s.Key] = s.Value
	}
	if settings["-race"] == "true" {
		env.close()
		return nil, fmt.Errorf("predictd was built with -race (GOFLAGS=%q): refusing to measure an instrumented binary", os.Getenv("GOFLAGS"))
	}
	env.info.GoVersion = bi.GoVersion
	env.info.Predictd = "plain"
	env.info.Commit = settings["vcs.revision"]
	if env.info.Commit == "" {
		env.info.Commit = "unknown (not a git checkout)"
	} else if settings["vcs.modified"] == "true" {
		env.info.Commit += "+dirty"
	}
	env.info.GOMAXPROCS = runtime.GOMAXPROCS(0)
	env.info.NProc = runtime.NumCPU()
	env.info.CPUModel = cpuModel()
	return env, nil
}

// close kills every child still running, waits for each, and removes the
// run directory. It is safe to call twice.
func (e *environment) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.dir)
}

// tempDir makes a fresh directory under the run directory.
func (e *environment) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(e.dir, pattern)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
