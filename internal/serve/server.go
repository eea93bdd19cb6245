package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	_ "repro/internal/compressor/lossless" // register compressor plugins
	_ "repro/internal/compressor/sz3"
	_ "repro/internal/compressor/szx"
	_ "repro/internal/compressor/zfp"
	"repro/internal/core"
	"repro/internal/dataset"
	_ "repro/internal/metrics" // register metric plugins
	"repro/internal/pressio"
	"repro/internal/store"
)

// Config tunes the serving subsystem; zero values pick serving-friendly
// defaults.
type Config struct {
	// Workers is the predict worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the pending predict queue; a full queue sheds
	// load with 429 (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity (default 1024).
	CacheSize int
	// Deadline bounds each predict computation (default 30s).
	Deadline time.Duration
	// FitWorkers is the training worker-pool size (default 1).
	FitWorkers int
	// FitQueueDepth bounds queued training jobs (default 8).
	FitQueueDepth int
	// DefaultOptions are merged under every request's options (predictd
	// -opts flag).
	DefaultOptions pressio.Options
	// JobTTL bounds how long finished fit jobs stay queryable via
	// /v1/jobs before eviction (default 1h).
	JobTTL time.Duration
	// JobRetain caps how many finished fit jobs are retained regardless
	// of age (default 256).
	JobRetain int
	// NodeName identifies this predictd in a replicated cluster. It is
	// stamped into fit-job IDs ("job-<node>-N") and journal records, so
	// recovery replays only this node's jobs: a peer's records arrive
	// via replication and stay read-only until explicitly adopted.
	// Empty means standalone.
	NodeName string
	// AckBarrier, when set, must return nil before a fit job is
	// acknowledged with 202. Cluster nodes use it to wait until the
	// journaled record is durable on a follower, so the 202 promise
	// survives losing this node entirely. A barrier failure withdraws
	// the job (503 + Retry-After; the client retries idempotently).
	AckBarrier func(ctx context.Context) error
	// DataCacheBytes bounds the memory tier of the tiered dataset cache
	// that predict and fit read hurricane cells through (default 128
	// MiB; negative is an error). A cell larger than the tier is still
	// served, and freed with its last reader.
	// Serving buffers through one cache gives every request over a
	// resident cell the same *pressio.Data, and a buffer carries what was
	// computed from it (the fused summary, error-agnostic metric
	// results), so requests that differ only in the error bound share
	// that work for as long as the cell stays resident.
	DataCacheBytes int64
	// DataSpillDir, when set, enables the dataset cache's mmap-backed
	// disk tier (predictd -data-spill).
	DataSpillDir string
	// CoalesceWindow is ignored: benchmark/serve_trace.go still sets it and this tree may not edit benchmark/.
	CoalesceWindow time.Duration

	// testHookPredict, when set, runs at the start of every predict-pool
	// task (a single's miss, a batch, an observation) — tests use it to
	// hold worker slots busy, and the crash harness kills a batch here.
	testHookPredict func()
	// testHookFit, when set, runs at the start of every fit execution.
	testHookFit func()
	// testClock, when set, replaces time.Now for job TTL eviction.
	testClock func() time.Time
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.FitWorkers <= 0 {
		c.FitWorkers = 1
	}
	if c.FitQueueDepth <= 0 {
		c.FitQueueDepth = 8
	}
	if c.JobTTL <= 0 {
		c.JobTTL = time.Hour
	}
	if c.JobRetain <= 0 {
		c.JobRetain = 256
	}
	if c.DataCacheBytes == 0 {
		c.DataCacheBytes = 128 << 20
	}
}

// FitJob tracks one asynchronous training job through its state machine
// (queued → running → done | failed): a mutex over the job's journal
// record. Status, Error, Model, Samples and FinishedAtUnix move under mu;
// the rest of the record is fixed before the job is shared and may be
// read without it.
type FitJob struct {
	mu  sync.Mutex
	rec jobRecord
}

// JobView is the immutable JSON projection of a FitJob.
type JobView struct {
	ID         string `json:"id"`
	Key        string `json:"key"`
	Scheme     string `json:"scheme"`
	Compressor string `json:"compressor"`
	Status     string `json:"status"`
	Error      string `json:"error,omitempty"`
	Model      string `json:"model,omitempty"`
	Samples    int    `json:"samples,omitempty"`
}

// record copies the job's journal record.
func (j *FitJob) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

func (j *FitJob) view() JobView {
	r := j.record()
	return JobView{
		ID: r.ID, Key: r.Key, Scheme: r.Scheme, Compressor: r.Compressor,
		Status: r.Status, Error: r.Error, Model: r.Model, Samples: r.Samples,
	}
}

func (j *FitJob) setStatus(status, errMsg string) {
	j.mu.Lock()
	j.rec.Status, j.rec.Error = status, errMsg
	j.mu.Unlock()
}

// finish moves the job to a terminal status and stamps the eviction
// clock.
func (j *FitJob) finish(status, errMsg string, at time.Time) {
	j.mu.Lock()
	j.rec.Status, j.rec.Error = status, errMsg
	j.rec.FinishedAtUnix = at.Unix()
	j.mu.Unlock()
}

// setModel records the model the job's fit produced or adopted.
func (j *FitJob) setModel(e *ModelEntry) {
	j.mu.Lock()
	j.rec.Model, j.rec.Samples = e.Key, e.Samples
	j.mu.Unlock()
}

// jobFromRecord rebuilds a journaled job as node's own. A job last
// journaled queued or running was interrupted mid-flight: it goes back
// to queued and the bool says it must run (again).
func jobFromRecord(rec jobRecord, node string) (*FitJob, bool) {
	rec.Node = node
	interrupted := rec.Status == "queued" || rec.Status == "running"
	if interrupted {
		rec.Status = "queued"
	}
	return &FitJob{rec: rec}, interrupted
}

// Server is the prediction-serving subsystem: registry + cache + bounded
// pools behind an http.Handler.
type Server struct {
	cfg       Config
	registry  *Registry
	cache     *lru[cellKey, cellValue]
	data      *dataset.TieredCache
	features  core.Evaluator
	pool      *workerPool
	fitPool   *workerPool
	stats     *counters
	draining  atomic.Bool
	replaying atomic.Bool
	journal   *journal

	jobMu    sync.Mutex
	jobs     map[string]*FitJob
	jobByKey map[string]string // journal key → job ID
	jobSeq   uint64
}

// New builds a Server over an open store (which it does not close). The
// server starts in replaying state — fit submission and /healthz report
// 503 until Recover has replayed the job journal.
func New(st *store.Store, cfg Config) (*Server, error) {
	cfg.defaults()
	reg, err := OpenRegistry(st)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		registry: reg,
		cache:    newLRU[cellKey, cellValue](cfg.CacheSize),
		pool:     newWorkerPool(cfg.Workers, cfg.QueueDepth),
		fitPool:  newWorkerPool(cfg.FitWorkers, cfg.FitQueueDepth),
		stats:    newCounters(),
		journal:  &journal{st: st},
		jobs:     map[string]*FitJob{},
		jobByKey: map[string]string{},
	}
	if s.data, err = dataset.NewTiered(dataset.TieredConfig{
		CapacityBytes: cfg.DataCacheBytes,
		SpillDir:      cfg.DataSpillDir,
	}); err != nil {
		return nil, err
	}
	s.replaying.Store(true)
	return s, nil
}

// now is the eviction clock (overridable in tests).
func (s *Server) now() time.Time {
	if s.cfg.testClock != nil {
		return s.cfg.testClock()
	}
	return time.Now()
}

// Recover replays the durable job journal: every job journaled as done
// or failed becomes queryable again via /v1/jobs, and every job caught
// queued or running by the crash is re-enqueued to run (again). Fit
// execution is idempotent — a re-run whose model already landed adopts
// it instead of re-publishing — so at-least-once replay is safe. Until
// Recover returns, /healthz and fit submission report 503.
func (s *Server) Recover(ctx context.Context) error {
	defer s.replaying.Store(false)
	if _, err := s.claim(ctx, s.cfg.NodeName); err != nil {
		return err
	}
	s.sweepJobs()
	return nil
}

// claim takes the journaled jobs of node as this node's and returns how
// many it took. A job already held is skipped; the rest keep their IDs
// (they are what clients poll), are re-journaled under this node when
// node is another, and are re-enqueued when the crash or death of node
// interrupted them. A record of any other node is not touched: it is
// that node's job (or its adopter's) until Adopt claims it, and even
// loading it for TTL sweeping would let this node delete a live peer's
// journal entry through replication.
func (s *Server) claim(ctx context.Context, node string) (int, error) {
	recs, err := s.journal.load()
	if err != nil {
		s.stats.journalError()
		return 0, err
	}
	var claimed, pending []*FitJob
	s.jobMu.Lock()
	for _, rec := range recs {
		if _, held := s.jobs[rec.ID]; held || rec.Node != node {
			continue
		}
		job, interrupted := jobFromRecord(rec, s.cfg.NodeName)
		// an adopted ID names its author, so passing it only skips numbers
		s.jobSeq = max(s.jobSeq, jobSeqOf(rec.ID))
		s.jobs[rec.ID] = job
		if _, taken := s.jobByKey[rec.Key]; !taken {
			// an identical local job (same opthash) keeps the key; an
			// adopted one still completes via publish-once adoption
			s.jobByKey[rec.Key] = rec.ID
		}
		claimed = append(claimed, job)
		if interrupted {
			pending = append(pending, job)
		}
	}
	s.jobMu.Unlock()
	if node != s.cfg.NodeName {
		for _, job := range claimed {
			s.journalJob(job)
		}
	}
	return len(claimed), s.enqueueAcked(ctx, pending)
}

// enqueueAcked enqueues jobs a 202 already promised — replayed from the
// journal or adopted from a dead peer — so a full fit queue is waited
// out, not shed. It stops early when the server is draining (the rest
// stay journaled as queued for the next start) or ctx ends (its error).
func (s *Server) enqueueAcked(ctx context.Context, jobs []*FitJob) error {
	for _, job := range jobs {
		for !s.enqueueFit(job) {
			if s.fitPool.isClosed() {
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// Replaying reports whether journal replay is still in progress.
func (s *Server) Replaying() bool { return s.replaying.Load() }

// Registry exposes the model registry (predictd CLI introspection).
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the predictd HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.timed("/v1/predict", s.handlePredict))
	mux.HandleFunc("/v1/predict/batch", s.timed("/v1/predict/batch", s.handlePredictBatch))
	mux.HandleFunc("/v1/observe", s.timed("/v1/observe", s.handleObserve))
	mux.HandleFunc("/v1/fit", s.timed("/v1/fit", s.handleFit))
	mux.HandleFunc("/v1/jobs/", s.timed("/v1/jobs", s.handleJob))
	mux.HandleFunc("/v1/models", s.timed("/v1/models", s.handleModels))
	mux.HandleFunc("/v1/invalidate", s.timed("/v1/invalidate", s.handleInvalidate))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// Drain stops accepting new work and blocks until in-flight predictions
// and training jobs finish — the SIGTERM path. /healthz reports 503 from
// the first call so load balancers stop routing here.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	s.pool.drain()
	s.fitPool.drain()
}

// timed wraps a handler with the per-endpoint request/latency counters.
func (s *Server) timed(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := h(w, r)
		s.stats.observe(endpoint, status, time.Since(start).Seconds()*1e3)
	}
}

// writeJSON emits a JSON body with the given status and returns the
// status for the latency wrapper.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	return writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a JSON request body: a client streaming an
// unbounded body must not pin a connection (and its decode buffer)
// indefinitely.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a bounded JSON request body holding exactly one
// value; the returned status distinguishes an oversized body (413) from a
// malformed one (400). Anything but whitespace after the value is
// malformed: a second value — an NDJSON stream or a concatenated retry
// posted as JSON — must not be answered as if only the first was sent.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	return decodeJSONFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeJSONFrom is decodeJSON over a body already capped.
func decodeJSONFrom(body io.Reader, v any) (int, error) {
	dec := json.NewDecoder(body)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return 0, nil
		}
		if err == nil {
			err = errors.New("more than one JSON value")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
}

// inSlot runs fn in one predict-pool slot, after the test hook, and
// returns the channel closed once fn has returned. A full queue sheds
// fn: the reply is then written (429 + Retry-After), the channel is nil
// and the int is the reply's status.
func (s *Server) inSlot(w http.ResponseWriter, fn func()) (<-chan struct{}, int) {
	done := make(chan struct{})
	if !s.pool.trySubmit(func() {
		defer close(done)
		if s.cfg.testHookPredict != nil {
			s.cfg.testHookPredict()
		}
		fn()
	}) {
		s.stats.reject()
		w.Header().Set("Retry-After", s.pool.retryAfter(1, 30))
		return nil, writeError(w, http.StatusTooManyRequests, "saturated: %d workers busy, queue full", s.cfg.Workers)
	}
	return done, 0
}

// handlePredict serves one prediction as a batch of one: the same group
// resolution, cache key, hit path and miss computation as a batch item.
// What a single adds is a deadline the handler enforces while its miss
// runs: the miss writes into its own result and runs under the request's
// context, so a client that leaves stops its computation.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.pool.retryAfter(1, 30))
		return writeError(w, http.StatusServiceUnavailable, "draining")
	}
	var req PredictRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		return writeError(w, status, "%v", err)
	}
	if (req.Features == nil) == (req.Data == nil) {
		return writeError(w, http.StatusBadRequest, "exactly one of features or data must be set")
	}
	var dims []int
	if req.Data != nil {
		dims = req.Data.Dims
	}
	g, status, err := s.resolveGroup(req.Scheme, req.Compressor, req.Options, req.Alpha, dims)
	if err != nil {
		return writeError(w, status, "%v", err)
	}
	var key cellKey
	if req.Data != nil {
		key = cellKey{base: g.base, field: req.Data.Field, step: req.Data.Step}
	} else if want := g.scheme.Features(); len(req.Features) != len(want) {
		return writeError(w, http.StatusBadRequest, "scheme %s wants %d features %v, got %d", g.schemeName, len(want), want, len(req.Features))
	} else {
		key = featureKey(g.base, req.Features)
	}

	var out BatchItemResult
	if s.cellHitInto(key, &out) {
		s.stats.cacheHit()
	} else {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
		defer cancel()
		// the slot's own result: a handler that gives up leaves it behind
		miss := new(BatchItemResult)
		done, status := s.inSlot(w, func() {
			if req.Data != nil {
				s.predictCellMiss(ctx, g, key, miss)
				return
			}
			s.predictFeatureRow(g, req.Features, miss)
			s.cacheResult(g, key, miss)
		})
		if done == nil {
			return status
		}
		select {
		case <-done:
		case <-ctx.Done():
			return writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %v", s.cfg.Deadline)
		}
		if out = *miss; out.Error != "" {
			return writeError(w, http.StatusBadRequest, "%s", out.Error)
		}
		s.stats.cacheMiss()
	}
	return writeJSON(w, http.StatusOK, PredictResponse{
		Scheme: g.schemeName, Compressor: g.compressor, Target: g.target,
		Prediction: out.Prediction, Interval: out.Interval, Model: g.model, Cached: out.Cached,
	})
}

// schemeTrains probes whether the scheme's predictor needs a trained
// model for this compressor.
func schemeTrains(scheme core.Scheme, compressor string) (bool, error) {
	p, err := scheme.NewPredictor(compressor)
	if err != nil {
		return false, err
	}
	return p.Trains(), nil
}

// requestOptions merges request options over the server defaults.
func (s *Server) requestOptions(m map[string]any) (pressio.Options, error) {
	opts, err := optionsFromJSON(m)
	if err != nil {
		return nil, err
	}
	if len(s.cfg.DefaultOptions) == 0 {
		return opts, nil
	}
	merged := s.cfg.DefaultOptions.Clone()
	merged.Merge(opts)
	return merged, nil
}

// maxFitCells bounds one training job's observation count.
const maxFitCells = 4096

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.fitPool.retryAfter(2, 120))
		return writeError(w, http.StatusServiceUnavailable, "draining")
	}
	if s.replaying.Load() {
		// new submissions wait for replay: job IDs resume above the
		// journaled sequence, and duplicates are detected against it
		w.Header().Set("Retry-After", "1")
		return writeError(w, http.StatusServiceUnavailable, "replaying job journal")
	}
	var req FitRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		return writeError(w, status, "%v", err)
	}
	scheme, err := core.GetScheme(req.Scheme)
	if err != nil {
		return writeError(w, http.StatusNotFound, "%v", err)
	}
	if !scheme.Supports(req.Compressor) {
		return writeError(w, http.StatusBadRequest, "scheme %s does not support compressor %s", req.Scheme, req.Compressor)
	}
	if trains, terr := schemeTrains(scheme, req.Compressor); terr != nil {
		return writeError(w, http.StatusBadRequest, "%v", terr)
	} else if !trains {
		return writeError(w, http.StatusBadRequest, "scheme %s does not train; predict directly", req.Scheme)
	}
	tr := &req.Training
	if len(tr.Fields) == 0 || tr.Steps <= 0 || len(tr.Bounds) == 0 {
		return writeError(w, http.StatusBadRequest, "training needs fields, steps, and bounds")
	}
	if len(tr.Dims) > 0 {
		if err := checkDims(tr.Dims); err != nil {
			return writeError(w, http.StatusBadRequest, "%v", err)
		}
	}
	if cells := len(tr.Fields) * tr.Steps * len(tr.Bounds); cells > maxFitCells {
		return writeError(w, http.StatusBadRequest, "training set of %d cells exceeds the %d-cell budget", cells, maxFitCells)
	}
	opts, err := s.requestOptions(req.Options)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}

	key := JobKey(req.Scheme, req.Compressor, opts, req.Training)

	s.jobMu.Lock()
	if id, ok := s.jobByKey[key]; ok {
		if prev := s.jobs[id]; prev != nil {
			if prev.view().Status != "failed" {
				// idempotent resubmit: the same opthash queued, running,
				// or done is the same job
				s.jobMu.Unlock()
				return writeJSON(w, http.StatusAccepted, FitResponse{JobID: id, Existing: true})
			}
			// a failed attempt is superseded by the retry
			delete(s.jobs, id)
			delete(s.jobByKey, key)
			s.stats.jobsEvicted(1)
		}
	}
	s.jobSeq++
	id := fmt.Sprintf("job-%d", s.jobSeq)
	if s.cfg.NodeName != "" {
		id = fmt.Sprintf("job-%s-%d", s.cfg.NodeName, s.jobSeq)
	}
	job := &FitJob{rec: jobRecord{
		ID: id, Key: key, Node: s.cfg.NodeName, Scheme: req.Scheme, Compressor: req.Compressor,
		Status: "queued", Request: req,
	}}
	s.jobs[id] = job
	s.jobByKey[key] = id
	s.jobMu.Unlock()

	// journal before acknowledging: the 202 promises the job survives a
	// crash, so a job that cannot be made durable is not accepted
	if err := s.journalJob(job); err != nil {
		s.unregisterJob(job)
		return writeError(w, http.StatusInternalServerError, "journal: %v", err)
	}
	// in cluster mode the 202 additionally promises the job survives
	// losing this node, so the record must replicate before the ack
	if s.cfg.AckBarrier != nil {
		if err := s.cfg.AckBarrier(r.Context()); err != nil {
			s.unregisterJob(job)
			s.journal.remove(key) // never acknowledged: withdraw the record
			w.Header().Set("Retry-After", s.fitPool.retryAfter(2, 120))
			return writeError(w, http.StatusServiceUnavailable, "replication barrier: %v", err)
		}
	}
	if !s.enqueueFit(job) {
		s.unregisterJob(job)
		s.journal.remove(key) // never acknowledged: withdraw the record
		s.stats.reject()
		w.Header().Set("Retry-After", s.fitPool.retryAfter(2, 120))
		return writeError(w, http.StatusTooManyRequests, "fit queue full")
	}
	s.sweepJobs()
	return writeJSON(w, http.StatusAccepted, FitResponse{JobID: id})
}

// journalJob persists the job's current state, counting (but not
// propagating policy on) journal write failures.
func (s *Server) journalJob(job *FitJob) error {
	if err := s.journal.put(job.record()); err != nil {
		s.stats.journalError()
		return err
	}
	return nil
}

// unregisterJob drops a job that was never acknowledged.
func (s *Server) unregisterJob(job *FitJob) {
	s.jobMu.Lock()
	delete(s.jobs, job.rec.ID)
	if s.jobByKey[job.rec.Key] == job.rec.ID {
		delete(s.jobByKey, job.rec.Key)
	}
	s.jobMu.Unlock()
}

// enqueueFit submits a job to the fit pool; false means the queue is
// full or draining.
func (s *Server) enqueueFit(job *FitJob) bool {
	return s.fitPool.trySubmit(func() { s.executeFit(job) })
}

// executeFit runs one fit job through its state machine, journaling each
// transition. Journal failures past the queued ack are counted but do
// not abort the job: the queued record already guarantees a replay.
func (s *Server) executeFit(job *FitJob) {
	job.setStatus("running", "")
	s.journalJob(job)
	if s.cfg.testHookFit != nil {
		s.cfg.testHookFit()
	}
	//lint:ignore pressiovet/ctxflow async fit job survives the submitting request by design; bounded by 10x deadline instead
	ctx, cancel := context.WithTimeout(context.Background(), 10*s.cfg.Deadline)
	defer cancel()
	if err := s.fitOnce(ctx, job); err != nil {
		job.finish("failed", err.Error(), s.now())
	} else {
		job.finish("done", "", s.now())
	}
	s.journalJob(job)
	s.sweepJobs()
}

// fitOnce re-derives the fit inputs from the job's stored request (the
// replay path has nothing else) and runs the training.
func (s *Server) fitOnce(ctx context.Context, job *FitJob) error {
	req := &job.rec.Request
	scheme, err := core.GetScheme(req.Scheme)
	if err != nil {
		return err
	}
	opts, err := s.requestOptions(req.Options)
	if err != nil {
		return err
	}
	return s.runFit(ctx, job, req, opts, scheme)
}

// sweepJobs evicts finished jobs past the TTL, then the oldest beyond
// the retention cap, removing their journal records so the store does
// not accrete one record per job forever.
func (s *Server) sweepJobs() {
	now := s.now()
	s.jobMu.Lock()
	var finished []jobRecord
	for _, j := range s.jobs {
		if rec := j.record(); rec.FinishedAtUnix != 0 {
			finished = append(finished, rec)
		}
	}
	// oldest first; jobs that finished within one second of the journal's
	// clock go in submission order
	sort.Slice(finished, func(a, b int) bool {
		if fa, fb := finished[a].FinishedAtUnix, finished[b].FinishedAtUnix; fa != fb {
			return fa < fb
		}
		return jobSeqOf(finished[a].ID) < jobSeqOf(finished[b].ID)
	})
	cut := 0
	for cut < len(finished) && now.Sub(time.Unix(finished[cut].FinishedAtUnix, 0)) > s.cfg.JobTTL {
		cut++
	}
	if rem := len(finished) - cut; rem > s.cfg.JobRetain {
		cut += rem - s.cfg.JobRetain
	}
	evicted := finished[:cut]
	for _, rec := range evicted {
		delete(s.jobs, rec.ID)
		if s.jobByKey[rec.Key] == rec.ID {
			delete(s.jobByKey, rec.Key)
		}
	}
	s.jobMu.Unlock()
	for _, rec := range evicted {
		s.journal.remove(rec.Key)
	}
	if len(evicted) > 0 {
		s.stats.jobsEvicted(len(evicted))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET only")
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.jobMu.Lock()
	job, ok := s.jobs[id]
	s.jobMu.Unlock()
	if !ok {
		return writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return writeJSON(w, http.StatusOK, job.view())
}

// modelView is a ModelEntry listing without the state payload. The
// state digest lets cluster replicas (and their tests) compare model
// bytes across nodes without shipping the state itself.
type modelView struct {
	Key        string   `json:"key"`
	Scheme     string   `json:"scheme"`
	Compressor string   `json:"compressor"`
	Predictor  string   `json:"predictor"`
	Target     string   `json:"target"`
	Features   []string `json:"features"`
	Samples    int      `json:"samples"`
	StateBytes int      `json:"state_bytes"`
	StateSHA   string   `json:"state_sha256"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET only")
	}
	entries := s.registry.List()
	out := make([]modelView, len(entries))
	for i, e := range entries {
		sum := sha256.Sum256(e.State)
		out[i] = modelView{
			Key: e.Key, Scheme: e.Scheme, Compressor: e.Compressor,
			Predictor: e.PredictorName, Target: e.Target,
			Features: e.Features, Samples: e.Samples, StateBytes: len(e.State),
			StateSHA: hex.EncodeToString(sum[:]),
		}
	}
	return writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	var req InvalidateRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		return writeError(w, status, "%v", err)
	}
	if len(req.Keys) == 0 {
		return writeError(w, http.StatusBadRequest, "keys required")
	}
	evicted, err := s.registry.Invalidate(req.Keys...)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "%v", err)
	}
	// error-agnostic metric results memoised on resident buffers
	s.features.Invalidate(req.Keys)

	// clear cached predictions from schemes the declaration made stale
	// (memoized per scheme; cache entries are the only source of names)
	staleMemo := map[string]bool{}
	staleScheme := func(name string) bool {
		stale, ok := staleMemo[name]
		if !ok {
			scheme, err := core.GetScheme(name)
			if err != nil {
				stale = true
			} else {
				stale, _ = core.SchemeStale(scheme, req.Keys)
			}
			staleMemo[name] = stale
		}
		return stale
	}
	cleared := s.cache.evictIf(func(v cellValue) bool { return staleScheme(v.scheme) })
	s.stats.evicted(len(evicted), cleared)
	resp := InvalidateResponse{EvictedModels: evicted, ClearedCached: cleared}
	if resp.EvictedModels == nil {
		resp.EvictedModels = []string{}
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.replaying.Load() {
		// not ready: acknowledged jobs are still being re-enqueued, so a
		// load balancer must not route fit traffic here yet
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "replaying"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.sweepJobs() // TTL eviction is observable without fit traffic
	st := s.stats.snapshot()
	st.Process = readProcessStats()
	st.Draining = s.draining.Load()
	st.Replaying = s.replaying.Load()
	st.Models = s.registry.Len()
	st.CacheSize = s.cache.len()
	st.DataCache = s.data.Stats()
	st.FeatureMemo.Hits, st.FeatureMemo.Misses = s.features.MemoStats()
	st.Jobs = map[string]int{}
	s.jobMu.Lock()
	for _, j := range s.jobs {
		v := j.view()
		st.Jobs[v.Status]++
		if v.Status == "done" || v.Status == "failed" {
			st.JobsRetained++
		}
	}
	s.jobMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
