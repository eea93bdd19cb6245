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
	// Workers is how many predictions compute at once (default 4): the
	// predict pool's run slots. A batch or an observation runs on its
	// handler's goroutine while it holds one; a single's miss on one of
	// the pool's runner goroutines, so the handler can answer 504 at
	// Deadline.
	Workers int
	// QueueDepth bounds the requests waiting for a slot, first in first
	// out, each until its context ends (504); one more is shed with 429
	// (default 64). The waiters feed Retry-After.
	QueueDepth int
	// CacheSize is the LRU result-cache capacity (default 1024).
	CacheSize int
	// Deadline bounds each predict computation (default 30s).
	Deadline time.Duration
	// FitWorkers is how many fits train at once: the fit pool's slots (default 1).
	FitWorkers int
	// FitQueueDepth bounds the fits waiting for a slot (default 8).
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

	// testHookPredict, when set, runs first in every predict-pool slot
	// (a single's miss, a batch, an observation) — tests use it to hold
	// slots busy, and the crash harness kills a batch here.
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

// Server is the prediction-serving subsystem: registry + cache + bounded
// pools behind an http.Handler.
type Server struct {
	cfg       Config
	registry  *Registry
	cache     *lru[cellKey, cellValue]
	data      *dataset.TieredCache
	features  core.Evaluator
	pool      *slotPool
	fitPool   *slotPool
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
		pool:     newSlotPool(cfg.Workers, cfg.QueueDepth),
		fitPool:  newSlotPool(cfg.FitWorkers, cfg.FitQueueDepth),
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

// enterSlot takes a predict-pool run slot for the request ctx belongs
// to. A refusal writes the reply: 429 + Retry-After when every slot is
// held and the queue is full (or the pool drains), 504 when the context
// ended while the request waited. The int is then its status; 0 means
// the caller holds a slot and must hand it to runHeld.
func (s *Server) enterSlot(ctx context.Context, w http.ResponseWriter) int {
	err := s.pool.enter(ctx)
	if err == nil {
		return 0
	}
	if errors.Is(err, errSaturated) {
		s.stats.reject()
		w.Header().Set("Retry-After", s.pool.retryAfter(1, 30))
		return writeError(w, http.StatusTooManyRequests, "saturated: %d workers busy, queue full", s.cfg.Workers)
	}
	return writeError(w, http.StatusGatewayTimeout, "%v waiting for a predict slot", err)
}

// runHeld runs fn, after the test hook, in the slot its caller entered,
// and leaves the slot.
func (s *Server) runHeld(fn func()) {
	defer s.pool.leave(time.Now())
	if s.cfg.testHookPredict != nil {
		s.cfg.testHookPredict()
	}
	fn()
}

// inSlot runs fn on the calling goroutine in one predict-pool slot: 0
// once fn has returned, or the status enterSlot replied with.
func (s *Server) inSlot(ctx context.Context, w http.ResponseWriter, fn func()) int {
	if status := s.enterSlot(ctx, w); status != 0 {
		return status
	}
	s.runHeld(fn)
	return 0
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
		if status := s.enterSlot(ctx, w); status != 0 {
			return status
		}
		// the slot runs on a runner goroutine into its own result, so
		// that the handler can answer at the deadline: one that gives up
		// leaves both behind
		miss := new(BatchItemResult)
		done := make(chan struct{})
		s.pool.handOff(func() {
			defer close(done)
			s.runHeld(func() {
				if req.Data != nil {
					s.predictCellMiss(ctx, g, key, miss)
					return
				}
				s.predictFeatureRow(g, req.Features, miss)
				s.cacheResult(g, key, miss)
			})
		})
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
	// (cache entries are the only source of names); a scheme whose
	// staleness cannot be decided keeps its entries
	staleScheme := staleSchemes(req.Keys)
	cleared := s.cache.evictIf(func(v cellValue) bool {
		stale, _ := staleScheme(v.scheme)
		return stale
	})
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
