package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/stats"
)

// RunConfig locates the pieces a scenario run needs on disk.
type RunConfig struct {
	// Bin is the prebuilt predictd binary (see BuildPredictd).
	Bin string
	// WorkDir is scratch space for node stores, logs, and ready files.
	WorkDir string
	// CorpusDir is where the corpus lives; a manifest-verified corpus
	// already there (same spec) is reused across runs.
	CorpusDir string
}

// Run executes one full scenario: corpus, deployment, priming fit,
// seeded open-loop load, /statz scrape. Judging the returned metrics
// (CheckSLO, the prediction-accounting equality) is the caller's choice
// (cmd/scenariobench, TestScenario).
func Run(ctx context.Context, sc *Scenario, cfg RunConfig) (*Metrics, error) {
	if _, _, err := dataset.BuildCorpus(cfg.CorpusDir, sc.Corpus.Fields, sc.Corpus.Steps, sc.Corpus.Dims, sc.Corpus.Seed); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}

	h, err := Deploy(ctx, cfg.Bin, cfg.WorkDir, sc.Topology, nil)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	d := &driver{sc: sc, h: h}
	if err := d.prime(ctx); err != nil {
		return nil, fmt.Errorf("priming fit: %w\nrouter log:\n%s", err, h.Router.Log())
	}
	if err := d.drive(ctx); err != nil {
		return nil, err
	}

	return d.metrics(ctx)
}

// driver issues the scheduled traffic and records its outcomes: the
// steady-window samples, and over the whole run what was answered.
type driver struct {
	sc *Scenario
	h  *Harness

	mu          sync.Mutex
	latencies   []float64 // steady-window request latencies, ms
	requests    int
	errors      int
	predictions int // predictions carried by successful steady requests
	answered    int // predictions answered 2xx, warmup included
	failed      int // operations not answered 2xx, warmup included
}

func (d *driver) post(ctx context.Context, path string, body any) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		d.h.Router.Base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.h.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out, nil
}

// fitBounds gives fit sequence seq its own distinct training bounds
// (distinct opthash — no dedup collapse between scheduled fits or with
// the priming fit) while keeping the declared cell count.
func (d *driver) fitBounds(seq int) []float64 {
	b := append([]float64(nil), d.sc.Traffic.Bounds...)
	b[len(b)-1] *= 1 + 1e-3*float64(seq+1)
	return b
}

func (d *driver) fitRequest(bounds []float64) serve.FitRequest {
	t := d.sc.Traffic
	return serve.FitRequest{
		Scheme:     t.Scheme,
		Compressor: t.Compressor,
		Training: serve.TrainingSpec{
			Fields: d.sc.Corpus.Fields[:1],
			Steps:  t.FitSteps,
			Dims:   d.sc.Corpus.Dims,
			Bounds: bounds,
		},
	}
}

// prime fits the scheme's model once and waits for it, so predicts have
// a model to serve from before the measured window opens.
func (d *driver) prime(ctx context.Context) error {
	status, raw, err := d.post(ctx, "/v1/fit", d.fitRequest(d.sc.Traffic.Bounds))
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("fit not accepted: HTTP %d: %s", status, raw)
	}
	var fr serve.FitResponse
	if err := json.Unmarshal(raw, &fr); err != nil || fr.JobID == "" {
		return fmt.Errorf("202 without job_id: %s", raw)
	}
	deadline := now().Add(90 * time.Second)
	for now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		var jv struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if d.h.GetJSON(d.h.Router.Base+"/v1/jobs/"+fr.JobID, &jv) == nil {
			switch jv.Status {
			case "done":
				return nil
			case "failed":
				return fmt.Errorf("priming job failed: %s", jv.Error)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("priming job %s never finished", fr.JobID)
}

// cellRef resolves a corpus cell index to its (field, step) pair.
func (d *driver) cellRef(cell int) (string, int) {
	return d.sc.Corpus.Fields[cell/d.sc.Corpus.Steps], cell % d.sc.Corpus.Steps
}

// batchRequest builds one columnar /v1/predict/batch body covering
// op.Batch cells starting at op.Cell, wrapping around the corpus.
func (d *driver) batchRequest(op Op) serve.BatchRequest {
	t := d.sc.Traffic
	req := serve.BatchRequest{
		Scheme:     t.Scheme,
		Compressor: t.Compressor,
		Options:    map[string]any{"pressio:abs": t.Bounds[0]},
		Dims:       d.sc.Corpus.Dims,
	}
	cells := d.sc.Corpus.Cells()
	for i := 0; i < op.Batch; i++ {
		field, step := d.cellRef((op.Cell + i) % cells)
		req.Fields = append(req.Fields, field)
		req.Steps = append(req.Steps, step)
	}
	return req
}

// issue sends one scheduled op and records its outcome. Every 2xx is a
// success, except a batch whose body reports itemized errors (the failed
// items were not answered); anything else (including transport errors —
// the 20s client timeout is the hang detector) is an error sample.
func (d *driver) issue(ctx context.Context, op Op) {
	t := d.sc.Traffic
	var path string
	var body any
	switch {
	case op.Kind == OpPredict && op.Batch > 0:
		path, body = "/v1/predict/batch", d.batchRequest(op)
	case op.Kind == OpPredict:
		field, step := d.cellRef(op.Cell)
		path, body = "/v1/predict", serve.PredictRequest{
			Scheme:     t.Scheme,
			Compressor: t.Compressor,
			Options:    map[string]any{"pressio:abs": t.Bounds[0]},
			Data:       &serve.DataRef{Field: field, Step: step, Dims: d.sc.Corpus.Dims},
		}
	case op.Kind == OpFit:
		path, body = "/v1/fit", d.fitRequest(d.fitBounds(op.Seq))
	case op.Kind == OpInvalidate:
		path, body = "/v1/invalidate", serve.InvalidateRequest{Keys: t.InvalidateKeys}
	}

	start := now()
	status, raw, err := d.post(ctx, path, body)
	elapsedMS := float64(now().Sub(start)) / float64(time.Millisecond)

	ok := err == nil && status >= 200 && status < 300
	if ok && op.Batch > 0 {
		var br serve.BatchResponse
		ok = json.Unmarshal(raw, &br) == nil && br.Count == op.Batch && br.Errors == 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ok {
		d.answered += op.Predictions()
	} else {
		d.failed++
	}
	if !op.Steady {
		return
	}
	d.requests++
	d.latencies = append(d.latencies, elapsedMS)
	if ok {
		d.predictions += op.Predictions()
	} else {
		d.errors++
	}
}

// drive plays the seeded schedule open-loop: each op fires at its
// arrival offset regardless of whether earlier ops returned.
func (d *driver) drive(ctx context.Context) error {
	schedule := Schedule(d.sc.Traffic, d.sc.Corpus.Cells())
	if len(schedule) == 0 {
		return fmt.Errorf("traffic schedule is empty")
	}
	var wg sync.WaitGroup
	start := now()
	for _, op := range schedule {
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return err
		}
		if wait := start.Add(op.At).Sub(now()); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(op Op) {
			defer wg.Done()
			d.issue(ctx, op)
		}(op)
	}
	wg.Wait()
	return nil
}

// metrics folds the recorded samples and a final /statz scrape into the
// measured steady-window metrics.
func (d *driver) metrics(ctx context.Context) (*Metrics, error) {
	d.mu.Lock()
	m := &Metrics{
		Requests:      d.requests,
		Errors:        d.errors,
		Predictions:   d.predictions,
		AchievedQPS:   float64(d.requests-d.errors) / d.sc.Traffic.SteadyS,
		PredictionQPS: float64(d.predictions) / d.sc.Traffic.SteadyS,
		P50MS:         stats.Quantile(d.latencies, 0.50),
		P90MS:         stats.Quantile(d.latencies, 0.90),
		P99MS:         stats.Quantile(d.latencies, 0.99),
		Answered:      d.answered,
		Failed:        d.failed,
	}
	if d.requests > 0 {
		m.ErrorRate = float64(d.errors) / float64(d.requests)
	}
	d.mu.Unlock()

	sts, err := d.h.Statz(ctx)
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		m.CacheHits += st.CacheHits
		m.CoalescedHits += st.CoalescedHits
		m.CacheMisses += st.CacheMisses
		if st.Process.RSSBytes > m.MaxRSSBytes {
			m.MaxRSSBytes = st.Process.RSSBytes
		}
	}
	return m, nil
}
