package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/pressio"
)

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
			if s.draining.Load() {
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
	if !scheme.Info().Training {
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
	return s.fitPool.submit(func() { s.executeFit(job) })
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

// runFit executes one training job: observe every (field, step, bound)
// cell through core.ObserveCell — data through the tiered dataset cache,
// so repeated fits over the same hurricane fields (and any concurrent
// predicts) share buffers and skip regeneration; the error-agnostic
// metrics once per cell, however many bounds the fit observes it at; the
// target from a real compressor run — fit the predictor, and publish the
// model to the registry.
func (s *Server) runFit(ctx context.Context, job *FitJob, req *FitRequest, opts pressio.Options, scheme core.Scheme) error {
	tr := req.Training
	key := ModelKey(req.Scheme, req.Compressor, opts, tr)
	if prev, ok := s.registry.Get(key); ok {
		// a model for this exact opthash already landed — from a crashed
		// run whose publish survived, or an identical earlier fit. Adopt
		// it instead of training again: publish-once per opthash is what
		// keeps at-least-once journal replay from ever installing two
		// divergent models under one key.
		job.setModel(prev)
		return nil
	}
	dims := tr.Dims
	if len(dims) == 0 {
		dims = defaultDataDims
	}
	// one plan per bound serves every field and step, one cell at a time
	plans := make([]*core.FeaturePlan, len(tr.Bounds))
	for i, bound := range tr.Bounds {
		boundOpts := opts.Clone()
		boundOpts.Set(pressio.OptAbs, bound)
		var err error
		if plans[i], err = s.features.Plan(scheme, req.Compressor, boundOpts); err != nil {
			return err
		}
	}
	var x [][]float64
	var y []float64
	for _, field := range tr.Fields {
		for step := 0; step < tr.Steps; step++ {
			for _, plan := range plans {
				if err := ctx.Err(); err != nil {
					return err
				}
				ob, err := core.ObserveCell(ctx, s.data, plan, core.Cell{Field: field, Step: step, Dims: dims, Replicates: 1})
				if err != nil {
					return err
				}
				features, err := ob.Vector(scheme.Features())
				if err != nil {
					return err
				}
				x = append(x, features)
				y = append(y, ob.CR)
			}
		}
	}
	p, err := scheme.NewPredictor(req.Compressor)
	if err != nil {
		return err
	}
	if err := p.Fit(x, y); err != nil {
		return err
	}
	state, err := predictors.MarshalState(p)
	if err != nil {
		return err
	}
	if prev, ok := s.registry.Get(key); ok {
		// the model landed while we were training — replicated from an
		// adopter that re-ran the same job. Adopt it rather than publishing
		// a duplicate.
		job.setModel(prev)
		return nil
	}
	entry := &ModelEntry{
		Key:           key,
		Scheme:        req.Scheme,
		Compressor:    req.Compressor,
		PredictorName: p.Name(),
		Target:        scheme.Target(),
		Features:      scheme.Features(),
		Samples:       len(x),
		State:         state,
	}
	if err := s.registry.Put(entry); err != nil {
		return err
	}
	job.setModel(entry)
	return nil
}
