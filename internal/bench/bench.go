// Package bench is the LibPressio-Predict-Bench driver (paper §4.3): it
// schedules metric/target observations over the distributed task queue
// with data-locality placement, checkpoints each result into the embedded
// store under stable option-structure hashes, and evaluates prediction
// schemes with (group) k-fold cross-validation, producing the paper's
// Table-2 report: per-stage times (error-dependent, error-agnostic,
// training, fit, inference) and MedAPE per (scheme, compressor), plus the
// compressor baselines.
package bench

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	_ "repro/internal/compressor/lossless" // register compressor plugins
	_ "repro/internal/compressor/sz3"
	_ "repro/internal/compressor/szx"
	_ "repro/internal/compressor/zfp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/hurricane"
	_ "repro/internal/metrics" // register metric plugins
	"repro/internal/mlkit"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/store"
)

// Spec configures a bench run. Zero values select the paper's setup
// scaled to the synthetic dataset.
type Spec struct {
	// Fields of the Hurricane dataset (default: all 13).
	Fields []string
	// Steps is the number of timesteps (default 48).
	Steps int
	// Dims is the 3-D grid (default hurricane.DefaultDims).
	Dims []int
	// Compressors under prediction (default sz3, zfp).
	Compressors []string
	// Bounds are the absolute error bounds (default 1e-6 and 1e-4).
	Bounds []float64
	// Schemes to evaluate (default khan2023, jin2022, rahman2023 — the
	// three the paper ports).
	Schemes []string
	// Folds for cross-validation (default 10).
	Folds int
	// Workers for the task queue (default 4).
	Workers int
	// StoreDir enables checkpointing when non-empty.
	StoreDir string
	// Retries is the per-task retry budget (default 2; negative for
	// none).
	Retries int
	// TaskTimeout bounds each observation attempt; a hung attempt is
	// abandoned and retried (0 = no deadline). A remote cell's request
	// carries the attempt's context, so it bounds the round trip too.
	TaskTimeout time.Duration
	// FaultPlan scripts deterministic failures across the queue, the
	// requests of a remote run (http rules), and the checkpoint store
	// (tests and resilience drills).
	FaultPlan *faultinject.Plan
	// Seed drives fold assignment and backoff jitter.
	Seed int64
	// InSample switches cross-validation from the paper's out-of-sample
	// grouping (all timesteps of a field stay together) to plain k-fold,
	// where a field's other timesteps may appear in training — the
	// "best-case" evaluation of the paper's future-work item (1).
	InSample bool
	// Target selects what schemes predict: "cr" (default, compression
	// ratio) or "bandwidth" (compression throughput in MB/s) — the
	// paper's future-work item (4). Bandwidth is a runtime,
	// nondeterministic target, so pair it with Replicates > 1.
	Target string
	// Replicates repeats the compressor run per cell and averages the
	// runtime observations (default 1) — the refinement nondeterministic
	// metrics need (paper §4.2, predictors:nondeterministic).
	Replicates int
	// Remote, when non-empty, is the base URL cells are observed at
	// instead of in-process: a predictd node, or a predictd -router whose
	// ring places each (field, step) buffer on one node of a fleet and
	// whose breakers and probes route around a dead one.
	Remote string
	// Progress, when non-nil, receives one line per completed task plus
	// a final queue summary. It is called concurrently from worker
	// goroutines and must be safe for concurrent use.
	Progress func(string)
}

// Target values.
const (
	TargetCR        = core.TargetCR
	TargetBandwidth = core.TargetBandwidth
)

const defaultWorkers = 4

func (s *Spec) defaults() {
	if len(s.Fields) == 0 {
		s.Fields = hurricane.FieldNames
	}
	if s.Steps <= 0 {
		s.Steps = hurricane.Timesteps
	}
	if len(s.Dims) == 0 {
		s.Dims = hurricane.DefaultDims
	}
	if len(s.Compressors) == 0 {
		s.Compressors = []string{"sz3", "zfp"}
	}
	if len(s.Bounds) == 0 {
		s.Bounds = []float64{1e-6, 1e-4}
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{"khan2023", "jin2022", "rahman2023"}
	}
	if s.Folds <= 0 {
		s.Folds = 10
	}
	if s.Workers <= 0 {
		s.Workers = defaultWorkers
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Target == "" {
		s.Target = TargetCR
	}
	if s.Replicates <= 0 {
		s.Replicates = 1
	}
}

// Observation is one checkpointable unit (core.ObserveCell makes them).
type Observation = core.Observation

// featureMetricsFor returns the union of feature metrics the evaluated
// schemes need for a compressor, so each cell is observed exactly once
// even when several schemes share metrics (the reuse the paper's
// challenge #1 asks for).
func featureMetricsFor(schemes []string, compressor string) ([]string, error) {
	var out []string
	for _, name := range schemes {
		sch, err := core.GetScheme(name)
		if err != nil {
			return nil, err
		}
		if sch.Supports(compressor) {
			out = append(out, sch.Metrics()...)
		}
	}
	sort.Strings(out)
	return slices.Compact(out), nil
}

// newCellCache is the loader → local-cache stack (paper Fig. 2) of one
// observing process: a (field, step) buffer is synthesized once however
// many cells read it. The budget is two float32 grids of dims per worker:
// the queue hands a worker the cells of a buffer it holds first, so it
// has one in use and one more at the hand-over.
// Its cells are mappings, which no collector frees: the caller closes it.
func newCellCache(workers int, dims []int) (*dataset.TieredCache, error) {
	capacity := int64(workers) * 2 * int64(pressio.DTypeFloat32.Size())
	for _, d := range dims {
		capacity *= int64(d)
	}
	return dataset.NewTiered(dataset.TieredConfig{CapacityBytes: capacity})
}

// observeRemote is the whole remote client: one POST of the cell to
// base's /v1/observe under the task's context. A transport error or a
// non-200 answer is the task's error: the queue's seeded backoff retries
// it, and a router behind base has failed over by then. The reply is the
// observation's record, returned beside the decoded value so the
// checkpoint stores the bytes the node sent.
func observeRemote(ctx context.Context, client *http.Client, base string, args *core.ObserveRequest) (*Observation, []byte, error) {
	body, err := json.Marshal(args)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("bench: %s/v1/observe: HTTP %d: %s", base, resp.StatusCode, bytes.TrimSpace(raw))
	}
	ob := new(Observation)
	var rd core.ObservationReader
	if err := rd.Read(raw, ob); err != nil {
		return nil, nil, fmt.Errorf("bench: %s/v1/observe: reply: %w", base, err)
	}
	return ob, raw, nil
}

// CellFailure records one observation cell the run could not complete.
type CellFailure struct {
	Key        string
	Field      string
	Step       int
	Bound      float64
	Compressor string
	Attempts   int
	Err        string
}

// CollectResult is the full outcome of the observation phase: the
// surviving observations plus everything an operator needs to reason
// about a degraded run.
type CollectResult struct {
	Observations []*Observation
	Failed       []CellFailure
	QueueStats   queue.Stats
	// What a local run reused; a remote run's nodes keep their own, on
	// their /statz (zero here).
	Data                 dataset.TieredStats
	MemoHits, MemoMisses uint64
}

// Collect runs the observation phase: every cell through the queue with
// checkpoint skip and locality placement, returning all observations.
// It degrades gracefully — cells that exhaust their retries are dropped
// (recorded in the checkpoint store when one is configured) and the
// survivors returned; it errors only when nothing survives.
func Collect(ctx context.Context, spec *Spec) ([]*Observation, error) {
	res, err := CollectDetailed(ctx, spec)
	if err != nil {
		return nil, err
	}
	return res.Observations, nil
}

// CollectDetailed is Collect with whole-run cancellation and the full
// resilience picture: failed cells and queue statistics (a remote run's
// breaker states and re-pins are the router's, on /v1/router/status).
// Cancelling ctx stops scheduling; already-finished cells
// stay checkpointed so a rerun resumes where this one stopped.
func CollectDetailed(ctx context.Context, spec *Spec) (*CollectResult, error) {
	spec.defaults()

	plan := spec.FaultPlan
	var st *store.Store
	var mu sync.Mutex
	results := map[string]*Observation{}
	if spec.StoreDir != "" {
		var err error
		st, err = store.Open(spec.StoreDir)
		if err != nil {
			return nil, err
		}
		st.Inject = plan
		defer st.Close()
		if results, _, err = restoreCells(st); err != nil { // the checkpointed cells
			return nil, err
		}
	}
	completed := make(map[string]bool, len(results))
	for k := range results {
		completed[k] = true
	}

	q := queue.New(queue.Config{
		Workers:     spec.Workers,
		Retries:     spec.Retries,
		Completed:   completed,
		TaskTimeout: spec.TaskTimeout,
		Inject:      plan,
		Seed:        uint64(spec.Seed),
	})
	cache, err := newCellCache(spec.Workers, spec.Dims)
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	var eval core.Evaluator
	client := &http.Client{Transport: &faultinject.RoundTripper{Plan: plan}}
	meta := map[string]core.ObserveRequest{}
	var keys []string
	// each part of the cells' keys is hashed once: the experiment's and
	// each (field, step)'s here, each (compressor, bound)'s in the loop
	exp, data := experimentPart(spec.Replicates), datasetParts(spec)
	for _, compressor := range spec.Compressors {
		metricNames, err := featureMetricsFor(spec.Schemes, compressor)
		if err != nil {
			return nil, err
		}
		for _, bound := range spec.Bounds {
			comp := compressorPart(compressor, bound)
			for i, field := range spec.Fields {
				for step := 0; step < spec.Steps; step++ {
					key := cellKeyOf(comp, data[i*spec.Steps+step], exp)
					keys = append(keys, key)
					args := core.ObserveRequest{
						Cell:        core.Cell{Field: field, Step: step, Dims: spec.Dims, Replicates: spec.Replicates},
						Bound:       bound,
						Compressor:  compressor,
						MetricNames: metricNames,
					}
					meta[key] = args
					err := q.Add(queue.Task{
						ID:      key,
						DataKey: fmt.Sprintf("%s/%d", field, step),
						Run: func(ctx context.Context, worker int) error {
							var ob *Observation
							var raw []byte // a remote cell's record, as the node sent it
							var err error
							if spec.Remote != "" {
								ob, raw, err = observeRemote(ctx, client, spec.Remote, &args)
							} else {
								ob, err = args.Observe(ctx, cache, &eval)
							}
							if err != nil {
								return err
							}
							mu.Lock()
							results[key] = ob
							mu.Unlock()
							if st != nil {
								if raw == nil {
									if raw, err = core.EncodeObservation(ob); err != nil {
										return err
									}
								}
								if err := st.Put(key, raw); err != nil {
									return err
								}
								// a success supersedes any failure record
								// from an earlier run
								st.Delete(failKey(key))
							}
							if spec.Progress != nil {
								spec.Progress(fmt.Sprintf("%s %s t%02d abs=%g cr=%.2f",
									args.Compressor, args.Field, args.Step, args.Bound, ob.CR))
							}
							return nil
						},
					})
					if err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// degrade gracefully: record failed cells (checkpointed with their
	// error so a restarted run retries exactly these) and keep going
	// with the survivors
	qResults := q.Run(ctx)
	res := &CollectResult{QueueStats: q.Stats(), Data: cache.Stats()}
	res.MemoHits, res.MemoMisses = eval.MemoStats()
	for _, key := range keys {
		r := qResults[key]
		if r == nil || r.Err == nil {
			continue
		}
		m := meta[key]
		cf := CellFailure{
			Key: key, Field: m.Field, Step: m.Step, Bound: m.Bound,
			Compressor: m.Compressor, Attempts: r.Attempts, Err: r.Err.Error(),
		}
		res.Failed = append(res.Failed, cf)
		if st != nil {
			// best effort: the store may itself be the injected casualty
			st.Put(failKey(key), []byte(cf.Err))
		}
		if spec.Progress != nil {
			spec.Progress(fmt.Sprintf("FAILED %s %s t%02d abs=%g after %d attempts: %v",
				m.Compressor, m.Field, m.Step, m.Bound, r.Attempts, r.Err))
		}
	}
	if spec.Progress != nil {
		qs := res.QueueStats
		line := fmt.Sprintf(
			"queue: %d tasks (%d from checkpoint), %d retried, %d failed, %d timed out, %d locality hits",
			qs.Tasks, qs.Skipped, qs.Retried, qs.Failed, qs.TimedOut, qs.LocalityHits)
		if spec.Remote == "" {
			line += fmt.Sprintf("; data: %d loads, %d hits; features: %d memo hits, %d computed",
				res.Data.Misses, res.Data.MemHits, res.MemoHits, res.MemoMisses)
		}
		spec.Progress(line)
	}
	// q.Run abandons an attempt on cancel or timeout while its goroutine
	// may still be storing its result: read under the tasks' lock
	mu.Lock()
	for _, k := range keys {
		if ob, ok := results[k]; ok { // a failed cell is missing: degraded, not fatal
			res.Observations = append(res.Observations, ob)
		}
	}
	mu.Unlock()
	if len(res.Observations) == 0 && len(res.Failed) > 0 {
		first := res.Failed[0]
		return nil, fmt.Errorf("bench: no cell survived (%d failed; first: %s: %s)",
			len(res.Failed), first.Key, first.Err)
	}
	return res, nil
}

type meanStd struct {
	Mean, Std float64
	N         int
}

func summarize(xs []float64) meanStd {
	return meanStd{Mean: stats.Mean(xs), Std: stats.Std(xs), N: len(xs)}
}

// BaselineRow is a compressor row of Table 2.
type BaselineRow struct {
	Compressor string
	Compress   meanStd
	Decompress meanStd
}

// MethodRow is a scheme row of Table 2.
type MethodRow struct {
	Compressor string
	Scheme     string
	Method     string // citation label

	ErrDep      meanStd
	HasErrDep   bool
	ErrAgn      meanStd
	HasErrAgn   bool
	Training    meanStd
	HasTraining bool
	Fit         meanStd
	HasFit      bool
	Infer       meanStd
	HasInfer    bool

	MedAPE    float64
	HasMedAPE bool
	Supported bool
}

// Report is the full Table-2 reproduction. Failed lists observation
// cells the run could not complete (graceful degradation): the rows are
// computed over the surviving cells only.
type Report struct {
	Baselines []BaselineRow
	Rows      []MethodRow
	Failed    []CellFailure
}

// Evaluate turns observations into the Table-2 report using group k-fold
// cross-validation (grouped by field, the paper's out-of-sample setting).
func Evaluate(spec *Spec, obs []*Observation) (*Report, error) {
	spec.defaults()
	report := &Report{}

	for _, compressor := range spec.Compressors {
		cobs := forCompressor(obs, compressor)
		if len(cobs) == 0 {
			continue
		}
		var cms, dms []float64
		for _, ob := range cobs {
			cms = append(cms, ob.CompressMS)
			dms = append(dms, ob.DecompressMS)
		}
		report.Baselines = append(report.Baselines, BaselineRow{
			Compressor: compressor,
			Compress:   summarize(cms),
			Decompress: summarize(dms),
		})

		for _, schemeName := range spec.Schemes {
			row, err := evaluateScheme(spec, schemeName, compressor, obs)
			if err != nil {
				return nil, err
			}
			report.Rows = append(report.Rows, *row)
		}
	}
	return report, nil
}

// forCompressor selects one compressor's observations, in order.
func forCompressor(obs []*Observation, compressor string) []*Observation {
	var out []*Observation
	for _, ob := range obs {
		if ob.Compressor == compressor {
			out = append(out, ob)
		}
	}
	return out
}

// Run is Collect + Evaluate. On ctx cancellation finished cells stay
// checkpointed and the report covers them, with the failed cells marked.
func Run(ctx context.Context, spec *Spec) (*Report, error) {
	res, err := CollectDetailed(ctx, spec)
	if err != nil {
		return nil, err
	}
	report, err := Evaluate(spec, res.Observations)
	if err != nil {
		return nil, err
	}
	report.Failed = res.Failed
	return report, nil
}

// evaluateScheme builds one Table-2 row from the compressor's cells —
// except the error-agnostic stage, which depends on neither compressor
// nor bound: that column samples every cell that paid for it.
func evaluateScheme(spec *Spec, schemeName, compressor string, obs []*Observation) (*MethodRow, error) {
	cobs := forCompressor(obs, compressor)
	scheme, err := core.GetScheme(schemeName)
	if err != nil {
		return nil, err
	}
	row := &MethodRow{
		Compressor: compressor,
		Scheme:     schemeName,
		Method:     scheme.Info().Method,
	}
	if !scheme.Supports(compressor) {
		return row, nil // all N/A, like zfp sian in Table 2
	}
	row.Supported = true

	var dep, agn []string
	for _, mn := range scheme.Metrics() {
		m, err := pressio.GetMetric(mn)
		if err != nil {
			return nil, err
		}
		if core.StageOf(m) == core.StageErrorAgnostic {
			agn = append(agn, mn)
		} else {
			dep = append(dep, mn)
		}
	}
	row.ErrDep, row.HasErrDep = stageMS(cobs, dep)
	row.ErrAgn, row.HasErrAgn = stageMS(obs, agn)

	ho, err := crossValidate(spec, scheme, compressor, cobs)
	if err != nil {
		return nil, err
	}
	if !ho.trained && spec.Target != TargetCR {
		// calculation schemes compute a CR, not a bandwidth: N/A row
		row.Supported = false
		return row, nil
	}
	row.MedAPE, row.HasMedAPE = stats.MedAPE(ho.preds, ho.actuals), true
	if ho.trained {
		var training []float64
		for _, ob := range cobs {
			training = append(training, ob.CompressMS)
		}
		row.Training, row.HasTraining = summarize(training), true
		row.Fit, row.HasFit = summarize(ho.fitMS), true
		row.Infer, row.HasInfer = summarize(ho.inferMS), true
	}
	return row, nil
}

// stageMS summarizes what a stage's metrics cost per cell, over the cells
// where any ran: one that found the results on its buffer is no sample.
func stageMS(cobs []*Observation, metrics []string) (meanStd, bool) {
	var totals []float64
	for _, ob := range cobs {
		total, ran := 0.0, false
		for _, mn := range metrics {
			if ms, ok := ob.MetricMS[mn]; ok {
				total += ms
				ran = true
			}
		}
		if ran {
			totals = append(totals, total)
		}
	}
	return summarize(totals), len(totals) > 0
}

// heldOut is the cross-validation outcome for one (scheme, compressor):
// prediction and actual target per observation, in order, and for trained
// schemes the wall ms of each fold's fit and each held-out prediction.
type heldOut struct {
	preds, actuals []float64
	trained        bool
	fitMS, inferMS []float64
}

// crossValidate predicts every observation's target without having seen
// it: calculation and trial schemes from the features alone, trained
// schemes fitted per fold on the other folds — out-of-sample (the paper's
// setting) keeps a field's timesteps in one fold, in-sample mixes them.
func crossValidate(spec *Spec, scheme core.Scheme, compressor string, cobs []*Observation) (*heldOut, error) {
	pred0, err := scheme.NewPredictor(compressor)
	if err != nil {
		return nil, err
	}
	featureKeys := scheme.Features()
	x := make([][]float64, len(cobs))
	groups := make([]string, len(cobs))
	ho := &heldOut{preds: make([]float64, len(cobs)), actuals: make([]float64, len(cobs)), trained: pred0.Trains()}
	for i, ob := range cobs {
		if x[i], err = ob.Vector(featureKeys); err != nil {
			return nil, err
		}
		ho.actuals[i] = ob.TargetValue(spec.Target)
		groups[i] = ob.Field
	}

	if !ho.trained {
		for i := range x {
			if ho.preds[i], err = pred0.Predict(x[i]); err != nil {
				return nil, err
			}
		}
		return ho, nil
	}
	var trains, tests [][]int
	if spec.InSample {
		trains, tests = mlkit.KFold(len(cobs), spec.Folds, spec.Seed)
	} else {
		trains, tests = mlkit.GroupKFold(groups, spec.Folds, spec.Seed)
	}
	for f := range trains {
		p, err := scheme.NewPredictor(compressor)
		if err != nil {
			return nil, err
		}
		tx := make([][]float64, len(trains[f]))
		ty := make([]float64, len(trains[f]))
		for i, idx := range trains[f] {
			tx[i] = x[idx]
			ty[i] = ho.actuals[idx]
		}
		start := now()
		if err := p.Fit(tx, ty); err != nil {
			return nil, fmt.Errorf("bench: %s fold %d fit: %w", scheme.Name(), f, err)
		}
		ho.fitMS = append(ho.fitMS, now().Sub(start).Seconds()*1e3)
		for _, idx := range tests[f] {
			start := now()
			v, err := p.Predict(x[idx])
			if err != nil {
				return nil, err
			}
			ho.inferMS = append(ho.inferMS, now().Sub(start).Seconds()*1e3)
			ho.preds[idx] = v
		}
	}
	return ho, nil
}

// fmtMS renders mean ± std in Table-2 style.
func fmtMS(m meanStd) string {
	return fmt.Sprintf("%.3g ± %.2g", m.Mean, m.Std)
}

func orNA(has bool, m meanStd) string {
	if !has {
		return "N/A"
	}
	return fmtMS(m)
}

// Table2 renders the report as an aligned text table mirroring the
// paper's Table 2.
func (r *Report) Table2() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-18s %-18s %-18s %-18s %-18s %-16s %-28s %-10s\n",
		"method", "ErrDep (ms)", "ErrAgn (ms)", "Training (ms)", "Fit (ms)", "Inference (ms)", "Compress/Decompress (ms)", "MedAPE (%)")
	for _, base := range r.Baselines {
		fmt.Fprintf(&b, "%-18s %-18s %-18s %-18s %-18s %-16s %-28s %-10s\n",
			base.Compressor, "", "", "", "", "",
			fmt.Sprintf("%s / %s", fmtMS(base.Compress), fmtMS(base.Decompress)), "")
		for _, row := range r.Rows {
			if row.Compressor != base.Compressor {
				continue
			}
			medape := "N/A"
			if row.HasMedAPE {
				medape = fmt.Sprintf("%.2f", row.MedAPE)
			}
			fmt.Fprintf(&b, "%-18s %-18s %-18s %-18s %-18s %-16s %-28s %-10s\n",
				base.Compressor+" "+row.Method,
				orNA(row.HasErrDep, row.ErrDep),
				orNA(row.HasErrAgn, row.ErrAgn),
				orNA(row.HasTraining, row.Training),
				orNA(row.HasFit, row.Fit),
				orNA(row.HasInfer, row.Infer),
				"", medape)
		}
	}
	if len(r.Failed) > 0 {
		fmt.Fprintf(&b, "\nWARNING: %d cell(s) failed; rows above cover surviving observations only\n", len(r.Failed))
		for _, f := range r.Failed {
			fmt.Fprintf(&b, "  failed: %s %s t%02d abs=%g (%d attempts): %s\n",
				f.Compressor, f.Field, f.Step, f.Bound, f.Attempts, f.Err)
		}
	}
	return b.String()
}

// Table1 renders the estimation-method taxonomy (paper Table 1) from the
// scheme registry plus the surveyed-only rows.
func Table1() string {
	var b bytes.Buffer
	bool2 := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	fmt.Fprintf(&b, "%-16s %-9s %-9s %-10s %-9s %-14s %-17s %-16s\n",
		"method", "training", "sampling", "black-box", "goal", "metrics", "approach", "features")
	var infos []core.Info
	for _, name := range core.SchemeNames() {
		s, err := core.GetScheme(name)
		if err != nil {
			continue
		}
		info := s.Info()
		if info.Method == "" {
			continue // test fixtures
		}
		infos = append(infos, info)
	}
	infos = append(infos, predictors.SurveyedInfo()...)
	sort.Slice(infos, func(i, j int) bool { return infos[i].Method < infos[j].Method })
	for _, info := range infos {
		fmt.Fprintf(&b, "%-16s %-9s %-9s %-10s %-9s %-14s %-17s %-16s\n",
			info.Method, bool2(info.Training), bool2(info.Sampling), info.BlackBox,
			info.Goal, info.Metrics, info.Approach, info.Features)
	}
	return b.String()
}

// CSV renders the report machine-readably (for plotting/regression
// tracking): one row per (compressor, scheme) plus baseline rows, with
// empty cells for N/A.
func (r *Report) CSV() string {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write([]string{
		"compressor", "scheme", "method",
		"errdep_ms_mean", "errdep_ms_std",
		"erragn_ms_mean", "erragn_ms_std",
		"training_ms_mean", "training_ms_std",
		"fit_ms_mean", "fit_ms_std",
		"infer_ms_mean", "infer_ms_std",
		"compress_ms_mean", "compress_ms_std",
		"decompress_ms_mean", "decompress_ms_std",
		"medape_pct",
	})
	cell := func(has bool, v float64) string {
		if !has {
			return ""
		}
		return strconv.FormatFloat(v, 'g', 6, 64)
	}
	for _, base := range r.Baselines {
		w.Write([]string{
			base.Compressor, "", "baseline",
			"", "", "", "", "", "", "", "", "", "",
			cell(true, base.Compress.Mean), cell(true, base.Compress.Std),
			cell(true, base.Decompress.Mean), cell(true, base.Decompress.Std),
			"",
		})
	}
	for _, row := range r.Rows {
		w.Write([]string{
			row.Compressor, row.Scheme, row.Method,
			cell(row.HasErrDep, row.ErrDep.Mean), cell(row.HasErrDep, row.ErrDep.Std),
			cell(row.HasErrAgn, row.ErrAgn.Mean), cell(row.HasErrAgn, row.ErrAgn.Std),
			cell(row.HasTraining, row.Training.Mean), cell(row.HasTraining, row.Training.Std),
			cell(row.HasFit, row.Fit.Mean), cell(row.HasFit, row.Fit.Std),
			cell(row.HasInfer, row.Infer.Mean), cell(row.HasInfer, row.Infer.Std),
			"", "", "", "",
			cell(row.HasMedAPE, row.MedAPE),
		})
	}
	w.Flush()
	return b.String()
}

// Scatter renders per-cell predicted-vs-actual pairs for one (scheme,
// compressor) as CSV — the raw data behind a prediction-quality scatter
// plot. Trained schemes are fitted out-of-sample with the spec's fold
// grouping first, so every point is a held-out prediction.
func Scatter(spec *Spec, schemeName, compressor string, obs []*Observation) (string, error) {
	spec.defaults()
	scheme, err := core.GetScheme(schemeName)
	if err != nil {
		return "", err
	}
	if !scheme.Supports(compressor) {
		return "", fmt.Errorf("bench: %s does not support %s", schemeName, compressor)
	}
	cobs := forCompressor(obs, compressor)
	if len(cobs) == 0 {
		return "", fmt.Errorf("bench: no observations for %s", compressor)
	}

	ho, err := crossValidate(spec, scheme, compressor, cobs)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write([]string{"field", "step", "bound", "actual", "predicted", "ape_pct"})
	for i, ob := range cobs {
		ape := math.NaN()
		if ho.actuals[i] != 0 {
			ape = math.Abs(ho.preds[i]-ho.actuals[i]) / ho.actuals[i] * 100
		}
		w.Write([]string{
			ob.Field,
			strconv.Itoa(ob.Step),
			strconv.FormatFloat(ob.Bound, 'g', -1, 64),
			strconv.FormatFloat(ho.actuals[i], 'g', 6, 64),
			strconv.FormatFloat(ho.preds[i], 'g', 6, 64),
			strconv.FormatFloat(ape, 'g', 4, 64),
		})
	}
	w.Flush()
	return b.String(), nil
}
