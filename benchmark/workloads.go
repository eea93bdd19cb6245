package main

import (
	"context"
	"time"
)

// runCtx is what one workload run is given.
type runCtx struct {
	env      *environment
	seed     int64
	window   time.Duration
	size     sizing
	spanFile string // traced run: where the spans go ("" keeps them in memory only)
	streams  int64  // random streams handed out so far
}

// stream returns the seed of a fresh random stream. Streams are handed out
// in program order, so a run's inputs depend on -seed alone, and no two
// windows of a run draw the same "fresh" error bounds.
func (rc *runCtx) stream() int64 {
	rc.streams++
	return rc.seed*1_000_003 + rc.streams*101 // closedLoop adds the worker index, below 101
}

// workload is one set of inputs the benchmark runs. why is the one-line
// reason BENCHMARK.json records; README.md has the long form. A gated
// workload is declared in BENCHMARK.json and run by the driver; the others
// are diagnostic: the same harness runs and traces them, but their numbers
// do not repeat well enough on a shared host to hold a change to.
type workload struct {
	name  string
	why   string
	gated bool
	run   func(ctx context.Context, rc *runCtx) (*outcome, error) // tracing off: end-to-end metrics
	trace func(ctx context.Context, rc *runCtx) (*outcome, error) // traced: per-layer metrics
}

var workloads = []*workload{
	{
		name:  "table2",
		why:   "the paper's own artefact: cold Table-2 collection into a fresh store, evaluation, then resume runs; hurricane, compressors, mlkit and the jin/khan surrogates do the work",
		gated: true,
		run:   runTable2,
		trace: traceTable2,
	},
	{
		name:  "serve_hot",
		why:   "closed loop of 4004-item columnar batches, every item a cell-cache hit: serve's front end (decode, cell key, LRU, counters, encode) per item, with every other layer bypassed",
		gated: true,
		run:   serveHot.run,
		trace: serveHot.trace,
	},
	{
		name:  "serve_sweep",
		why:   "an autotuner searching bounds: 13-item batches over resident cells at a fresh bound each, so result and cell caches miss, the data tier hits and metrics dominate",
		gated: true,
		run:   serveSweep.run,
		trace: serveSweep.trace,
	},
	{
		name:  "serve_cold",
		why:   "khan2023 single predicts over a working set 2.4x the memory tier at fresh bounds: eviction, verified mmap reload and the coalescer's miss path, with little metric work",
		gated: true,
		run:   serveCold.run,
		trace: serveCold.trace,
	},
	{
		name:  "serve_single",
		why:   "diagnostic: closed loop of single predicts that all hit the result cache; six sevenths of a request is loopback HTTP, which a shared host makes too unsteady to gate",
		run:   serveSingle.run,
		trace: serveSingle.trace,
	},
	{
		name:  "cluster_mixed",
		why:   "diagnostic: open-loop Poisson reads (9 hot : 1 miss) through the router of a 2-node cluster while fits and invalidates run beside them; idle cores between arrivals make its latency too unsteady to gate",
		run:   clusterMixed.run,
		trace: clusterMixed.trace,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
