package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/store"
)

// modelPrefix namespaces registry records in the shared store, beside the
// bench's "cell/" and "fail/" spaces.
const modelPrefix = "model/"

// ErrNoModel is returned when no trained model exists for a (scheme,
// compressor) pair.
var ErrNoModel = errors.New("serve: no trained model")

// ModelEntry is one persisted trained predictor.
type ModelEntry struct {
	// Key is the full registry key: modelPrefix + scheme/compressor/hash,
	// where hash is the opthash of the (scheme, compressor options,
	// training-set) tuple — §4.3's stable indexing applied to models.
	Key string
	// Scheme and Compressor identify what the model predicts for.
	Scheme     string
	Compressor string
	// PredictorName records the model family (from Predictor.Name), kept
	// for listings; the authoritative copy lives in the State envelope.
	PredictorName string
	// Target is the predicted result key, e.g. "size:compression_ratio".
	Target string
	// Features are the scheme's feature keys at fit time, in order.
	Features []string
	// Samples counts the training rows.
	Samples int
	// Seq orders entries for the same (scheme, compressor): lookups serve
	// the highest.
	Seq uint64
	// State is the predictors.MarshalState envelope.
	State []byte
}

// Registry is the model registry: a thin, fully cached layer over the
// durable store. All methods are safe for concurrent use; reads are
// served from memory, writes go through the store's WAL first.
type Registry struct {
	mu  sync.RWMutex
	st  *store.Store
	mem map[string]*registered // key → entry
	seq uint64
}

// registered is one published entry and the predictor decoded from it.
// The two share a lifetime: whatever replaces or removes the entry
// (Put, Absorb, Forget, Invalidate) drops its decoded predictor with it,
// so there is no second place to evict from.
type registered struct {
	entry *ModelEntry
	pred  core.Predictor // nil until Predictor first decodes entry.State
}

// OpenRegistry loads every persisted model entry from the store.
// Entries that fail to decode — from a corrupted record or a gob schema
// change — are dropped (and deleted best-effort) rather than served.
func OpenRegistry(st *store.Store) (*Registry, error) {
	r := &Registry{st: st, mem: map[string]*registered{}}
	keys, err := st.Keys(modelPrefix)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		raw, ok, err := st.Get(k)
		if err != nil || !ok {
			continue
		}
		var e ModelEntry
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); err != nil {
			st.Delete(k)
			continue
		}
		r.mem[k] = &registered{entry: &e}
		if e.Seq > r.seq {
			r.seq = e.Seq
		}
	}
	return r, nil
}

// ModelKey builds the registry key for a (scheme, compressor options,
// training-set) tuple. It shares its hash with JobKey, so the model a
// journaled fit job will publish is always derivable from the job.
func ModelKey(scheme, compressor string, opts pressio.Options, training TrainingSpec) string {
	return modelPrefix + scheme + "/" + compressor + "/" + fitHash(scheme, compressor, opts, training)
}

func dimsKey(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

// Put persists an entry (assigning its Seq) and publishes it to readers.
func (r *Registry) Put(e *ModelEntry) error {
	var buf bytes.Buffer
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq = r.seq
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return err
	}
	if err := r.st.Put(e.Key, buf.Bytes()); err != nil {
		return err
	}
	r.mem[e.Key] = &registered{entry: e}
	return nil
}

// Absorb publishes a replicated entry to readers without touching the
// store: the shipped WAL frame carrying raw has already been applied to
// the local store by the replication layer, so only the memory cache
// needs the update. The payload's CRC was validated frame-level before
// apply; a gob decode failure here means a schema mismatch and is
// returned rather than served.
func (r *Registry) Absorb(key string, raw []byte) error {
	var e ModelEntry
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mem[key] = &registered{entry: &e}
	if e.Seq > r.seq {
		// replicated entries advance the seq high-water mark so models
		// published here after an adoption never collide below it
		r.seq = e.Seq
	}
	return nil
}

// Forget drops a replicated deletion from the memory cache (the store
// deletion was already applied by the replication layer).
func (r *Registry) Forget(key string) {
	r.mu.Lock()
	delete(r.mem, key)
	r.mu.Unlock()
}

// Get returns the entry stored under key.
func (r *Registry) Get(key string) (*ModelEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if reg, ok := r.mem[key]; ok {
		return reg.entry, true
	}
	return nil, false
}

// Lookup returns the newest entry for a (scheme, compressor) pair, or
// ErrNoModel.
func (r *Registry) Lookup(scheme, compressor string) (*ModelEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	prefix := modelPrefix + scheme + "/" + compressor + "/"
	var best *ModelEntry
	for k, reg := range r.mem {
		if strings.HasPrefix(k, prefix) && (best == nil || reg.entry.Seq > best.Seq) {
			best = reg.entry
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w for scheme %q on compressor %q", ErrNoModel, scheme, compressor)
	}
	return best, nil
}

// List returns every entry, ordered by key.
func (r *Registry) List() []*ModelEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*ModelEntry, 0, len(r.mem))
	for _, reg := range r.mem {
		out = append(out, reg.entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.mem)
}

// Restore rebuilds the trained predictor of an entry through the
// predictors state envelope (typed errors on unknown/renamed predictor
// names — see predictors.RestoreState).
func (r *Registry) Restore(e *ModelEntry) (core.Predictor, error) {
	return predictors.RestoreState(e.Scheme, e.Compressor, e.State)
}

// Predictor returns e's trained predictor, decoded once per published
// entry rather than once per request. The decode is kept only while e is
// still the entry published under its key: a predictor decoded from an
// entry that was replaced meanwhile is returned to its caller and never
// stored, so it cannot answer for the entry that replaced it. Concurrent
// first callers may each decode (the result is the same). Restored
// predictors are only read concurrently (Predict), which the mlkit
// models support.
func (r *Registry) Predictor(e *ModelEntry) (core.Predictor, error) {
	r.mu.RLock()
	reg := r.mem[e.Key]
	var p core.Predictor
	if reg != nil && reg.entry == e {
		p = reg.pred
	}
	r.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	p, err := r.Restore(e)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if reg := r.mem[e.Key]; reg != nil && reg.entry == e {
		reg.pred = p
	}
	r.mu.Unlock()
	return p, nil
}

// staleSchemes folds an invalidation declaration over schemes: the
// function it returns reports, once per scheme, whether keys make the
// named scheme stale (core.SchemeStale). A scheme gone from the registry
// is stale: nothing can serve its models or cached predictions.
func staleSchemes(keys []string) func(scheme string) (bool, error) {
	memo := map[string]bool{}
	return func(name string) (bool, error) {
		stale, seen := memo[name]
		if seen {
			return stale, nil
		}
		scheme, err := core.GetScheme(name)
		if err != nil {
			stale = true
		} else if stale, err = core.SchemeStale(scheme, keys); err != nil {
			return false, err
		}
		memo[name] = stale
		return stale, nil
	}
}

// Invalidate applies the paper's predictors:invalidate semantics to the
// registry: every model whose scheme is made stale by the given option
// names or class keys (per core.SchemeStale — error_dependent covers
// specific error-affecting options, predictors:training covers all
// trained state) is evicted from memory and the store rather than served
// stale. It returns the evicted keys, sorted.
func (r *Registry) Invalidate(keys ...string) ([]string, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var evicted []string
	staleScheme := staleSchemes(keys)
	for k, reg := range r.mem {
		stale, err := staleScheme(reg.entry.Scheme)
		if err != nil {
			return nil, err
		}
		if !stale {
			continue
		}
		if err := r.st.Delete(k); err != nil {
			return nil, err
		}
		delete(r.mem, k)
		evicted = append(evicted, k)
	}
	sort.Strings(evicted)
	return evicted, nil
}
