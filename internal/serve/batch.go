package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/hurricane"
	"repro/internal/opthash"
	"repro/internal/pressio"
)

// MaxBatchItems bounds one batch request, mirroring maxFitCells: a batch
// is one pool slot, so an unbounded batch would be an unbounded slot.
const MaxBatchItems = 4096

// BatchRequest is the columnar batch-predict body: one envelope
// (scheme/compressor/options/alpha/dims) shared by every item, plus
// parallel Fields/Steps arrays naming dataset cells — or, alternatively,
// a flat row-major Features matrix (rows of len(scheme.Features())).
// Exactly one of the two item forms must be present.
type BatchRequest struct {
	Scheme     string         `json:"scheme"`
	Compressor string         `json:"compressor"`
	Options    map[string]any `json:"options,omitempty"`
	Alpha      float64        `json:"alpha,omitempty"`
	Dims       []int          `json:"dims,omitempty"`
	Fields     []string       `json:"fields,omitempty"`
	Steps      []int          `json:"steps,omitempty"`
	Features   []float64      `json:"features,omitempty"`
}

// BatchItemResult is one item's outcome. Batches have partial-failure
// semantics: a bad item sets Error and leaves the rest of the batch
// intact, and the HTTP status stays 200.
type BatchItemResult struct {
	Prediction float64   `json:"prediction"`
	Interval   []float64 `json:"interval,omitempty"`
	Cached     bool      `json:"cached"`
	Error      string    `json:"error,omitempty"`

	// frag is set on an item served from the cache: the item as JSON, for
	// a batch reply to copy instead of encoding the fields above again.
	frag string
}

// BatchResponse is the columnar batch reply; Results is item-aligned
// with the request.
type BatchResponse struct {
	Scheme     string            `json:"scheme"`
	Compressor string            `json:"compressor"`
	Target     string            `json:"target"`
	Model      string            `json:"model,omitempty"`
	Count      int               `json:"count"`
	Errors     int               `json:"errors"`
	Results    []BatchItemResult `json:"results"`
}

// cellKey identifies one cached prediction: the request-shape base
// (scheme, compressor, options, model, alpha, dims — everything a batch
// envelope fixes) plus the (field, step) coordinates that vary per item.
// A feature-vector request has no coordinates: featureKey folds its
// features into base and leaves them empty. A struct key keeps the
// hot-path map lookup allocation-free.
type cellKey struct {
	base  string
	field string
	step  int
}

// featureKey is the cache key of a feature-vector single predict.
func featureKey(base string, features []float64) cellKey {
	raw := make([]byte, 0, len(base)+1+8*len(features))
	raw = append(append(raw, base...), '#')
	for _, f := range features {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
	}
	return cellKey{base: string(raw)}
}

// cellValue is a served prediction, with the scheme and model it came
// from so invalidation and replication can evict exactly their entries.
// interval is written once at add and never mutated, so hits may share
// the slice header. frag is the answer a hit gives, already encoded: a
// batch of hits is then a lookup and a copy per item, at under ~100 bytes
// an entry (0.1 MiB at the default CacheSize).
type cellValue struct {
	prediction float64
	interval   []float64
	frag       string
	scheme     string
	model      string
}

// batchGroup is the resolved per-request context every item shares: one
// scheme lookup, one options merge, one model lookup, one cell-key base
// — amortized over the whole batch instead of paid per item. The lazily
// resolved predictor and feature plan make a group single-goroutine:
// each batch (and each single predict, a batch of one) builds and
// computes on its own.
type batchGroup struct {
	schemeName string
	compressor string
	scheme     core.Scheme
	opts       pressio.Options
	entry      *ModelEntry
	model      string
	target     string
	alpha      float64
	dims       [3]int
	base       string
	pred       core.Predictor
	plan       *core.FeaturePlan
}

// cellBase hashes the envelope part of a cell identity. The model key is
// folded in so a re-fit can never serve cells cached from the previous
// model.
func cellBase(schemeName, compressor string, opts pressio.Options, modelKey string, alpha float64, dims [3]int) string {
	ro := pressio.Options{}
	ro.Set("req:scheme", schemeName)
	ro.Set("req:compressor", compressor)
	ro.Set("req:dims", dimsKey(dims[:]))
	if alpha > 0 {
		ro.Set("req:alpha", alpha)
	}
	return opthash.Combine(ro, opts) + "/" + modelKey
}

// newBatchGroup assembles a group from already-validated parts; dims
// must be exactly 3 long.
func newBatchGroup(schemeName, compressor string, scheme core.Scheme, opts pressio.Options, entry *ModelEntry, alpha float64, dims []int) *batchGroup {
	g := &batchGroup{
		schemeName: schemeName,
		compressor: compressor,
		scheme:     scheme,
		opts:       opts,
		entry:      entry,
		target:     scheme.Target(),
		alpha:      alpha,
		dims:       [3]int{dims[0], dims[1], dims[2]},
	}
	if entry != nil {
		g.model = entry.Key
	}
	g.base = cellBase(schemeName, compressor, opts, g.model, alpha, g.dims)
	return g
}

// resolveGroup validates a request envelope — a batch's, or a single
// predict's — and resolves the state every item shares (404 unknown
// scheme / missing model, 400 everything else client-shaped). The int is
// the HTTP status when err is non-nil.
func (s *Server) resolveGroup(schemeName, compressor string, rawOpts map[string]any, alpha float64, dims []int) (*batchGroup, int, error) {
	if schemeName == "" || compressor == "" {
		return nil, http.StatusBadRequest, fmt.Errorf("scheme and compressor are required")
	}
	scheme, err := core.GetScheme(schemeName)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	if !scheme.Supports(compressor) {
		return nil, http.StatusBadRequest, fmt.Errorf("scheme %s does not support compressor %s", schemeName, compressor)
	}
	opts, err := s.requestOptions(rawOpts)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	s.stats.scheme(schemeName)
	var entry *ModelEntry
	if trains, terr := schemeTrains(scheme, compressor); terr != nil {
		return nil, http.StatusBadRequest, terr
	} else if trains {
		entry, err = s.registry.Lookup(schemeName, compressor)
		if errors.Is(err, ErrNoModel) {
			return nil, http.StatusNotFound, fmt.Errorf("%w — POST /v1/fit first", err)
		} else if err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	if len(dims) == 0 {
		dims = defaultDataDims
	}
	if len(dims) != 3 {
		return nil, http.StatusBadRequest, fmt.Errorf("data cells want 3 dims, got %v", dims)
	}
	if err := checkDims(dims); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return newBatchGroup(schemeName, compressor, scheme, opts, entry, alpha, dims), 0, nil
}

// groupPredictor resolves the group's predictor once per batch. Groups
// are single-goroutine, so the memo field needs no lock.
func (s *Server) groupPredictor(g *batchGroup) (core.Predictor, error) {
	if g.pred != nil {
		return g.pred, nil
	}
	var err error
	if g.entry != nil {
		g.pred, err = s.registry.Predictor(g.entry)
	} else {
		g.pred, err = g.scheme.NewPredictor(g.compressor)
	}
	return g.pred, err
}

// groupPlan resolves the scheme's configured metric plugins and their
// memo keys once per batch, like groupPredictor.
func (s *Server) groupPlan(g *batchGroup) (*core.FeaturePlan, error) {
	if g.plan != nil {
		return g.plan, nil
	}
	var err error
	g.plan, err = s.features.Plan(g.scheme, g.compressor, g.opts)
	return g.plan, err
}

// cellHitInto serves an item from the cache; false means miss. The hit
// path is allocation-free — BenchmarkServePredictBatch pins that.
func (s *Server) cellHitInto(k cellKey, out *BatchItemResult) bool {
	v, ok := s.cache.get(k)
	if !ok {
		return false
	}
	*out = BatchItemResult{Prediction: v.prediction, Interval: v.interval, Cached: true, frag: v.frag}
	return true
}

// predictFeatureRow runs the group's predictor over one feature row of
// the scheme's width (the handlers check client-supplied rows). A
// prediction or interval bound that is not finite has no JSON encoding:
// it is the item's error, like any other failure to predict.
func (s *Server) predictFeatureRow(g *batchGroup, features []float64, out *BatchItemResult) {
	p, err := s.groupPredictor(g)
	if err != nil {
		out.Error = err.Error()
		return
	}
	var interval []float64
	pred, lo, hi := 0.0, 0.0, 0.0
	if ip, ok := p.(core.IntervalPredictor); ok && g.alpha > 0 {
		pred, lo, hi, err = ip.PredictInterval(features, g.alpha)
		interval = []float64{lo, hi}
	} else {
		pred, err = p.Predict(features)
	}
	if err != nil {
		out.Error = err.Error()
		return
	}
	if !finite(pred) || !finite(lo) || !finite(hi) {
		out.Error = fmt.Sprintf("%s predicted %v with interval %v: not a finite number", g.schemeName, pred, interval)
		return
	}
	out.Prediction, out.Interval = pred, interval
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// predictCellMiss computes one cold cell: data through the tiered
// dataset cache (pinned for exactly the feature pass — repeated requests
// over a cell skip synthesis and share one buffer), features through
// the group's plan — which finds the error-agnostic metrics' results on
// the buffer when the cell was evaluated before at another bound —
// prediction through the group predictor, result into the cache.
func (s *Server) predictCellMiss(ctx context.Context, g *batchGroup, k cellKey, out *BatchItemResult) {
	if err := ctx.Err(); err != nil {
		out.Error = err.Error()
		return
	}
	h, err := s.data.Acquire(k.field, k.step, g.dims[:])
	if err != nil {
		out.Error = err.Error()
		return
	}
	defer h.Release()
	plan, err := s.groupPlan(g)
	if err != nil {
		out.Error = err.Error()
		return
	}
	features, err := plan.Evaluate(ctx, h.Data())
	if err != nil {
		out.Error = err.Error()
		return
	}
	s.predictFeatureRow(g, features, out)
	s.cacheResult(g, k, out)
}

// cacheResult stores a computed item under its key; a failed item is
// never cached.
func (s *Server) cacheResult(g *batchGroup, k cellKey, out *BatchItemResult) {
	if out.Error != "" {
		return
	}
	hit := BatchItemResult{Prediction: out.Prediction, Interval: out.Interval, Cached: true}
	s.cache.add(k, cellValue{
		prediction: out.Prediction,
		interval:   out.Interval,
		frag:       string(appendItem(make([]byte, 0, 96), &hit)),
		scheme:     g.schemeName,
		model:      g.model,
	})
}

// predictBatchItems serves every item of the scratch's decoded batch into
// its item-aligned results on the calling goroutine (the handler wraps
// the call in one worker-pool slot). This is the steady-state core the
// serve benchmark measures. A batch costs its distinct cells: the first
// occurrence of a (field, step) is looked up in the cache, or computed
// and cached, and every repeat copies that item as a hit — a computed
// item's copy encodes as the fragment cacheResult stored — even if the
// cache has evicted the entry since, as a batch naming more distinct
// cells than CacheSize can make it do. A failed cell is never copied:
// each repeat tries again and carries its own error.
func (s *Server) predictBatchItems(ctx context.Context, g *batchGroup, sc *batchScratch) (hits, errs int) {
	req, results := &sc.req, sc.results
	if len(req.Features) > 0 {
		nf := len(g.scheme.Features())
		for i := range results {
			s.predictFeatureRow(g, req.Features[i*nf:(i+1)*nf], &results[i])
			if results[i].Error != "" {
				errs++
			}
		}
		return 0, errs
	}
	if sc.cells == nil {
		sc.cells = map[string]*stepItems{}
	}
	for _, seen := range sc.cells {
		*seen = stepItems{}
	}
	for i := range results {
		field, step, out := req.Fields[i], req.Steps[i], &results[i]
		seen := sc.cells[field]
		if seen != nil && uint(step) < uint(len(seen)) && seen[step] != 0 {
			*out = results[seen[step]-1]
			out.Cached = true
			hits++
			continue
		}
		k := cellKey{base: g.base, field: field, step: step}
		if s.cellHitInto(k, out) {
			hits++
		} else if s.predictCellMiss(ctx, g, k, out); out.Error != "" {
			errs++
			continue
		}
		if seen == nil {
			seen = new(stepItems)
			sc.cells[field] = seen
		}
		if uint(step) < uint(len(seen)) {
			seen[step] = int32(i + 1)
		}
	}
	return hits, errs
}

// stepItems is one field's row of a batch's distinct-cell table: per
// step, 1 + the index of the item the cell was resolved at, 0 while it
// is not. A cell that resolves is a hurricane field at a step below
// Timesteps, so the table holds a row per field the data tier serves.
type stepItems [hurricane.Timesteps]int32

// batchScratch is the pooled scratch of one batch request: the body as
// read, the envelope decoded from it (slices reused across requests by
// resetting length, not capacity; names holds the strings they share),
// the item each distinct cell was resolved at, by field name, the
// item-aligned results and the reply encoded from them. Owned by exactly
// one handler between Get and Put.
type batchScratch struct {
	body    bytes.Buffer
	names   map[string]string
	req     BatchRequest
	cells   map[string]*stepItems
	results []BatchItemResult
	reply   []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset clears request-scoped state while keeping allocated capacity.
// The options map must be emptied explicitly: json.Unmarshal adds keys
// to an existing map without clearing it.
func (sc *batchScratch) reset() {
	sc.req.Scheme, sc.req.Compressor = "", ""
	sc.req.Alpha = 0
	sc.req.Dims = sc.req.Dims[:0]
	sc.req.Fields = sc.req.Fields[:0]
	sc.req.Steps = sc.req.Steps[:0]
	sc.req.Features = sc.req.Features[:0]
	clear(sc.req.Options)
	sc.results = sc.results[:0]
}

// retiredBatchEncoding names the request's content type when it is one of
// the two streamed batch encodings this endpoint used to accept. Their
// bodies are not one JSON value, so they are refused by name instead of
// being handed to the JSON decoder.
func retiredBatchEncoding(contentType string) string {
	ct, _, _ := strings.Cut(contentType, ";")
	switch ct = strings.ToLower(strings.TrimSpace(ct)); ct {
	case "application/x-ndjson", "application/x-json-frames":
		return ct
	}
	return ""
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.pool.retryAfter(1, 30))
		return writeError(w, http.StatusServiceUnavailable, "draining")
	}
	if ct := retiredBatchEncoding(r.Header.Get("Content-Type")); ct != "" {
		return writeError(w, http.StatusUnsupportedMediaType,
			"%s batches are no longer accepted: send one application/json body with parallel fields/steps arrays (or a features array)", ct)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	status, err := sc.decode(w, r)
	if err != nil {
		status = writeError(w, status, "%v", err)
	} else {
		status = s.runBatch(w, r, sc)
	}
	batchScratchPool.Put(sc)
	return status
}

// decode reads the capped body into the scratch and fills sc.req from it:
// by scan when the body is what scan accepts, and otherwise by decodeJSON
// over the same bytes and the same end of stream — the capped reader
// repeats the error it ended on — so every refusal is the one that
// decoder gives. Either way the field names come out interned; a table an
// earlier request filled starts over, or none of this request's names
// would be interned.
func (sc *batchScratch) decode(w http.ResponseWriter, r *http.Request) (int, error) {
	if len(sc.names) >= maxInterned {
		clear(sc.names)
	}
	sc.reset()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(body); err == nil && sc.scan() {
		return 0, nil
	}
	sc.reset()
	status, err := decodeJSONFrom(io.MultiReader(bytes.NewReader(sc.body.Bytes()), body), &sc.req)
	for i, f := range sc.req.Fields {
		sc.req.Fields[i] = sc.intern([]byte(f))
	}
	return status, err
}

// runBatch validates the decoded batch, computes it in one worker-pool
// slot, and encodes the reply.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, sc *batchScratch) int {
	req := &sc.req
	g, status, err := s.resolveGroup(req.Scheme, req.Compressor, req.Options, req.Alpha, req.Dims)
	if err != nil {
		return writeError(w, status, "%v", err)
	}
	featureMode := len(req.Features) > 0
	if featureMode && len(req.Fields) > 0 {
		return writeError(w, http.StatusBadRequest, "a batch is either fields/steps cells or feature rows, not both")
	}
	var n int
	if featureMode {
		nf := len(g.scheme.Features())
		if len(req.Features)%nf != 0 {
			return writeError(w, http.StatusBadRequest, "features length %d is not a multiple of the scheme's %d features", len(req.Features), nf)
		}
		n = len(req.Features) / nf
	} else {
		if len(req.Fields) != len(req.Steps) {
			return writeError(w, http.StatusBadRequest, "fields (%d) and steps (%d) must be parallel", len(req.Fields), len(req.Steps))
		}
		n = len(req.Fields)
	}
	if n == 0 {
		return writeError(w, http.StatusBadRequest, "empty batch")
	}
	if n > MaxBatchItems {
		return writeError(w, http.StatusBadRequest, "batch of %d items exceeds the %d-item budget", n, MaxBatchItems)
	}
	if cap(sc.results) < n {
		sc.results = make([]BatchItemResult, n)
	} else {
		sc.results = sc.results[:n]
		for i := range sc.results {
			sc.results[i] = BatchItemResult{}
		}
	}

	// one pool slot computes the whole batch — that amortization is the
	// point of the endpoint; a full queue sheds the whole batch with 429
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	var hits, errs int
	done, status := s.inSlot(w, func() { hits, errs = s.predictBatchItems(ctx, g, sc) })
	if done == nil {
		return status
	}
	// wait for the task, not the context: the task honors ctx internally,
	// and returning early would hand the pooled scratch back while the
	// task still writes into it
	<-done
	s.stats.batch(n, hits, errs)

	sc.reply = appendBatchResponse(sc.reply[:0], &BatchResponse{
		Scheme: g.schemeName, Compressor: g.compressor, Target: g.target,
		Model: g.model, Count: n, Errors: errs,
		Results: sc.results,
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.reply)
	return http.StatusOK
}
