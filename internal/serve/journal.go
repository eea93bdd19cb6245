package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/opthash"
	"repro/internal/pressio"
	"repro/internal/store"
)

// jobPrefix namespaces fit-job journal records in the shared store,
// beside the registry's "model/" space.
const jobPrefix = "job/"

// fitHash is the stable opthash of a (scheme, compressor options,
// training-set) tuple — the identity shared by a fit job and the model
// it publishes. JobKey and ModelKey differ only in prefix, so "did this
// job's model land?" is a prefix swap, not a second hash.
func fitHash(scheme, compressor string, opts pressio.Options, training TrainingSpec) string {
	schemeOpts := pressio.Options{}
	schemeOpts.Set("serve:scheme", scheme)
	schemeOpts.Set("serve:compressor", compressor)
	trainOpts := pressio.Options{}
	trainOpts.Set("training:fields", append([]string(nil), training.Fields...))
	trainOpts.Set("training:steps", int64(training.Steps))
	trainOpts.Set("training:dims", dimsKey(training.Dims))
	bounds := make([]string, len(training.Bounds))
	for i, b := range training.Bounds {
		bounds[i] = fmt.Sprintf("%g", b)
	}
	trainOpts.Set("training:bounds", bounds)
	return opthash.Combine(schemeOpts, opts, trainOpts)
}

// JobKey builds the journal key of a fit job.
func JobKey(scheme, compressor string, opts pressio.Options, training TrainingSpec) string {
	return jobPrefix + scheme + "/" + compressor + "/" + fitHash(scheme, compressor, opts, training)
}

// jobRecord is the JSON journal projection of a FitJob: enough to show
// the job's state after a restart and, for interrupted jobs, to re-run
// the fit (the full original request rides along).
type jobRecord struct {
	ID             string     `json:"id"`
	Key            string     `json:"key"`
	Node           string     `json:"node,omitempty"`
	Scheme         string     `json:"scheme"`
	Compressor     string     `json:"compressor"`
	Status         string     `json:"status"`
	Error          string     `json:"error,omitempty"`
	Model          string     `json:"model,omitempty"`
	Samples        int        `json:"samples,omitempty"`
	Request        FitRequest `json:"request"`
	FinishedAtUnix int64      `json:"finished_at_unix,omitempty"`
}

// journal persists fit jobs through the store's WAL.
type journal struct {
	st *store.Store
}

// put journals the record under its job key (last write wins, so one
// record tracks a job through its state machine).
func (j *journal) put(rec jobRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.st.Put(rec.Key, raw)
}

// remove deletes a job's journal record (evicted or never acknowledged).
func (j *journal) remove(key string) error {
	return j.st.Delete(key)
}

// load returns every journaled job, oldest job ID first. Records that
// fail to decode are dropped (and deleted best-effort) rather than
// wedging startup — the journal is a recovery aid, not primary data.
func (j *journal) load() ([]jobRecord, error) {
	keys, err := j.st.Keys(jobPrefix)
	if err != nil {
		return nil, err
	}
	var recs []jobRecord
	for _, k := range keys {
		raw, ok, err := j.st.Get(k)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Key != k {
			j.st.Delete(k)
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool { return jobSeqOf(recs[a].ID) < jobSeqOf(recs[b].ID) })
	return recs, nil
}

// jobSeqOf extracts N from a "job-N" or node-scoped "job-<node>-N" ID
// (0 for foreign IDs), so a restarted server resumes its ID sequence
// above every journaled job.
func jobSeqOf(id string) uint64 {
	n, err := strconv.ParseUint(id[strings.LastIndex(id, "-")+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
