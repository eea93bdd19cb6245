package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hurricane"
	"repro/internal/opthash"
	"repro/internal/pressio"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// twin is the plan's system rebuilt inside this process from exported
// parts only, so the traced run can time each layer from outside: a
// serve.Server behind its Handler (the whole request), and the same
// pipeline laid out call by call — TieredCache, SummaryOf, the scheme's
// metric plugins, ExtractFeatures, the restored Predictor.
type twin struct {
	rec    *recorder
	st     *store.Store
	srv    *serve.Server
	h      http.Handler
	cache  *dataset.TieredCache // the call-by-call replay's data tier, configured as the daemon's
	scheme core.Scheme
	pred   core.Predictor

	acquire, op int           // the acquire span in progress, for the loader's hurricane span
	summary     bool          // the scheme's metrics read the fused stats summary
	seen        map[cell]bool // cells whose error-agnostic metrics were evaluated before
	restoreMS   float64
	costs       metricCosts
}

// predictdDefaults mirrors cmd/predictd's flag defaults, which the twin
// must share to be the same system.
func predictdDefaults() serve.Config {
	return serve.Config{Workers: 4, QueueDepth: 64, CacheSize: 1024, CoalesceWindow: 500 * time.Microsecond}
}

func (p *servePlan) newTwin(ctx context.Context, rc *runCtx, in *serveInputs, rec *recorder) (*twin, error) {
	dir, err := rc.env.tempDir("twin-")
	if err != nil {
		return nil, err
	}
	tw := &twin{rec: rec, seen: map[cell]bool{}}
	cfg := predictdDefaults()
	tier := dataset.TieredConfig{CapacityBytes: 128 << 20, Loader: tw.load}
	switch {
	case p == serveCold:
		cfg.DataCacheBytes, cfg.DataSpillDir = in.sz.coldTier, filepath.Join(dir, "spill")
		tier.CapacityBytes, tier.SpillDir = in.sz.coldTier, filepath.Join(dir, "spill-replay")
	case p.cluster: // scenario nodes always get a spill directory
		cfg.DataSpillDir = filepath.Join(dir, "spill")
		tier.SpillDir = filepath.Join(dir, "spill-replay")
	}
	if tw.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	if tw.srv, err = serve.New(tw.st, cfg); err != nil {
		tw.st.Close()
		return nil, err
	}
	if err := tw.srv.Recover(ctx); err != nil {
		tw.close()
		return nil, err
	}
	tw.h = tw.srv.Handler()
	if tw.cache, err = dataset.NewTiered(tier); err != nil {
		tw.close()
		return nil, err
	}
	if tw.scheme, err = core.GetScheme(p.scheme); err != nil {
		tw.close()
		return nil, err
	}
	for _, name := range tw.scheme.Metrics() {
		tw.summary = tw.summary || name == "stat" || name == "entropy"
	}

	// the same set-up the daemon got, through the handler
	if p.trains() {
		body := fitBody(p.scheme, p.compressor, fields, 1, in.sz.hotDims, in.fitBounds[:])
		status, raw := tw.serve("/v1/fit", body)
		var fr struct {
			JobID string `json:"job_id"`
		}
		if status != http.StatusAccepted || json.Unmarshal(raw, &fr) != nil {
			tw.close()
			return nil, fmt.Errorf("twin fit: HTTP %d %s", status, raw)
		}
		for deadline := time.Now().Add(60 * time.Second); ; {
			var jv struct{ Status, Error string }
			_, raw := tw.get("/v1/jobs/" + fr.JobID)
			json.Unmarshal(raw, &jv)
			if jv.Status == "done" {
				break
			}
			if jv.Status == "failed" || time.Now().After(deadline) {
				tw.close()
				return nil, fmt.Errorf("twin fit job: %s %s", jv.Status, jv.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
		entry, err := tw.srv.Registry().Lookup(p.scheme, p.compressor)
		if err != nil {
			tw.close()
			return nil, err
		}
		tw.restoreMS = rec.timed("predictors.restore", 0, 0, func() { tw.pred, err = tw.srv.Registry().Restore(entry) })
		if err != nil {
			tw.close()
			return nil, err
		}
	} else if tw.pred, err = tw.scheme.NewPredictor(p.compressor); err != nil {
		tw.close()
		return nil, err
	}
	// warm both the server and the call-by-call pipeline with the working
	// set at the hot bound, as setUp warmed the daemon
	warm := rec.begin("replay.warm", 0, 0)
	for lo := 0; lo < len(in.cells); lo += len(fields) {
		part := in.cells[lo:min(lo+len(fields), len(in.cells))]
		if status, raw := tw.serve("/v1/predict/batch", batchBody(p.scheme, p.compressor, in.bound, part, in.dims)); status != http.StatusOK {
			tw.close()
			return nil, fmt.Errorf("twin warm-up: HTTP %d %s", status, raw)
		}
		if p.hot || p.cluster { // single predicts fill the whole-request cache the hot set is served from
			for _, c := range part {
				tw.serve("/v1/predict", p.single(in.bound, c, in))
			}
		}
		for _, c := range part {
			if _, err := tw.item(warm, 0, p.compressor, c, in.dims[:], boundOpts(in.bound)); err != nil {
				tw.close()
				return nil, fmt.Errorf("twin warm-up: %w", err)
			}
		}
	}
	rec.end(warm)
	tw.costs = metricCosts{} // the warm-up's evaluations are set-up, not operations
	return tw, nil
}

func (tw *twin) close() {
	tw.srv.Drain()
	tw.st.Close()
}

func boundOpts(bound float64) pressio.Options {
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, bound)
	return opts
}

// serve hands one request to the twin's handler, as the daemon's listener
// would.
func (tw *twin) serve(path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	tw.h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func (tw *twin) get(path string) (int, []byte) {
	w := httptest.NewRecorder()
	tw.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code, w.Body.Bytes()
}

// load is the replay tier's Loader: hurricane.Field under a span that is a
// child of the acquire that missed.
func (tw *twin) load(field string, step int, dims []int) (d *pressio.Data, err error) {
	tw.rec.timed("hurricane.synth", tw.acquire, tw.op, func() { d, err = hurricane.Field(field, step, dims) })
	return d, err
}

// item is the miss path of one cell, call by call.
func (tw *twin) item(parent, op int, compressor string, c cell, dims []int, opts pressio.Options) (float64, error) {
	rec := tw.rec
	id := rec.begin("dataset.acquire", parent, op)
	tw.acquire, tw.op = id, op
	before := tw.cache.Stats()
	h, err := tw.cache.Acquire(c.field, c.step, dims)
	after := tw.cache.Stats()
	switch {
	case after.MemHits > before.MemHits:
		rec.rename(id, "dataset.acquire_mem")
	case after.DiskHits > before.DiskHits:
		rec.rename(id, "dataset.acquire_spill")
	default:
		rec.rename(id, "dataset.acquire_regen")
	}
	rec.end(id)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	data := h.Data()

	if tw.summary {
		// the fused pass stat and entropy share: paid once per buffer, so
		// timed on its own and not charged to whichever metric runs first
		rec.timed("stats.summary", parent, op, func() { stats.SummaryOf(data, 4096, 0) })
	}
	results, _, err := tw.costs.runMetrics(rec, parent, op, tw.scheme.Metrics(), compressor, opts, data, tw.seen[c])
	if err != nil {
		return 0, err
	}
	tw.seen[c] = true

	var features []float64
	rec.timed("core.extract", parent, op, func() { features, err = core.ExtractFeatures(results, tw.scheme.Features()) })
	if err != nil {
		return 0, err
	}
	var v float64
	rec.timed("predictors.predict", parent, op, func() { v, err = tw.pred.Predict(features) })
	return v, err
}

// replayed is what one replayed operation measured, ms.
type replayed struct {
	hit                     bool
	items                   int
	tree, handler, loopback float64
	routed                  float64 // 0 when not sent through the router
}

// replayOp takes one generated request through the call-by-call pipeline,
// the twin's whole handler, the live daemon over loopback and (cluster, hit
// requests) the router, and checks that all of them give the same answer.
func (p *servePlan) replayOp(ctx context.Context, tw *twin, m *measured, o *outcome, op int, r *request, direct string) (replayed, error) {
	rec := tw.rec
	out := replayed{}
	path := strings.TrimPrefix(r.url, m.d.base)
	batch := strings.HasSuffix(path, "/batch")

	root := rec.begin("replay.op", 0, op)
	var cells []cell
	var dims []int
	var rawOpts map[string]any
	var derr error
	rec.timed("serve.decode", root, op, func() {
		if batch {
			var req serve.BatchRequest
			derr = json.Unmarshal(r.body, &req)
			for i := range req.Fields {
				cells = append(cells, cell{req.Fields[i], req.Steps[i]})
			}
			dims, rawOpts = req.Dims, req.Options
		} else {
			var req serve.PredictRequest
			if derr = json.Unmarshal(r.body, &req); derr == nil && req.Data != nil {
				cells = []cell{{req.Data.Field, req.Data.Step}}
				dims, rawOpts = req.Data.Dims, req.Options
			}
		}
	})
	if derr != nil || len(cells) == 0 {
		return out, fmt.Errorf("replay: cannot decode %s: %v", r.body, derr)
	}
	out.items = len(cells)
	bound, _ := rawOpts[pressio.OptAbs].(float64)
	opts := boundOpts(bound)
	out.hit = bound == m.in.bound // only the warmed bound is ever cached

	// the cache key: one opthash.Combine per request, as requestKey and
	// cellBase do
	rec.timed("opthash.combine", root, op, func() {
		ro := pressio.Options{}
		ro.Set("req:scheme", p.scheme)
		ro.Set("req:compressor", p.compressor)
		ro.Set("req:dims", fmt.Sprint(dims))
		if !batch {
			ro.Set("req:field", cells[0].field)
			ro.Set("req:step", int64(cells[0].step))
		}
		opthash.Combine(ro, opts)
	})
	preds := make([]float64, 0, len(cells))
	if !out.hit {
		for _, c := range cells {
			v, err := tw.item(root, op, p.compressor, c, dims, opts)
			if err != nil {
				return out, fmt.Errorf("replay %s t%d: %w", c.field, c.step, err)
			}
			preds = append(preds, v)
		}
	}
	rec.timed("serve.encode", root, op, func() {
		if batch {
			resp := serve.BatchResponse{Scheme: p.scheme, Compressor: p.compressor, Target: tw.scheme.Target(), Count: len(cells),
				Results: make([]serve.BatchItemResult, len(cells))}
			for i, v := range preds {
				resp.Results[i].Prediction = v
			}
			json.Marshal(resp)
		} else {
			resp := serve.PredictResponse{Scheme: p.scheme, Compressor: p.compressor, Target: tw.scheme.Target(), Cached: out.hit}
			if len(preds) > 0 {
				resp.Prediction = preds[0]
			}
			json.Marshal(resp)
		}
	})
	out.tree = rec.end(root)

	// the same request through the whole handler, then over loopback
	var status int
	var body []byte
	out.handler = rec.timed("serve.handler", 0, op, func() { status, body = tw.serve(path, r.body) })
	inProcess, err := predictionsOf(batch, status, body, len(cells))
	if err != nil {
		return out, fmt.Errorf("replay handler: %w", err)
	}
	if m.d.router != nil && out.hit {
		var hdr http.Header
		out.routed = rec.timed("cluster.routed", 0, op, func() { status, body, hdr, err = m.d.doHeader(ctx, http.MethodPost, m.d.base+path, r.body) })
		if err == nil {
			_, err = predictionsOf(batch, status, body, len(cells))
		}
		if err != nil {
			return out, fmt.Errorf("replay routed: %w", err)
		}
		for _, n := range m.d.nodes { // compare with the node the router chose
			if n.name == hdr.Get("X-Served-By") {
				direct = n.base
			}
		}
	}
	out.loopback = rec.timed("transport.loopback", 0, op, func() { status, body, err = m.d.do(ctx, http.MethodPost, direct+path, r.body) })
	if err != nil {
		return out, fmt.Errorf("replay loopback: %w", err)
	}
	live, err := predictionsOf(batch, status, body, len(cells))
	if err != nil {
		return out, fmt.Errorf("replay loopback: %w", err)
	}
	for i := range live {
		same := closeTo(live[i], inProcess[i]) && (out.hit || closeTo(live[i], preds[i]))
		o.check(same, "replay %s t%d at %g: daemon %v, twin handler %v, call-by-call %v", cells[i].field, cells[i].step, bound, live[i], inProcess[i], preds)
	}
	return out, nil
}

func predictionsOf(batch bool, status int, body []byte, items int) ([]float64, error) {
	if batch {
		b, err := parseBatch(status, body, items)
		if err != nil {
			return nil, err
		}
		out := make([]float64, items)
		for i, r := range b.Results {
			out[i] = r.Prediction
		}
		return out, nil
	}
	a, err := parseSingle(status, body)
	return []float64{a.Prediction}, err
}

// trace is the traced run of a serving workload. End-to-end numbers never
// come from here: it runs a short window with tracing off and one with a
// client span around every request (their difference is
// trace.overhead_share), reads the daemon's counters at the window's
// edges, then replays a seeded sample of the same operations layer by
// layer.
func (p *servePlan) trace(ctx context.Context, rc *runCtx) (*outcome, error) {
	defer quietGenerator()()
	o := newOutcome()
	rec := newRecorder()
	m, err := p.prepare(ctx, rc, p.inputs(rc.seed, rc.size), o, nil)
	if err != nil {
		return nil, err
	}
	defer m.d.close()
	// four short windows — off, on, on, off — so a drift over the run
	// does not read as tracing overhead; the counters and the writer log
	// are taken from the last traced one
	withSpans := func(r *request) *request {
		traced := *r
		traced.rec = rec
		return &traced
	}
	var off, on []float64
	var traced measuredWindow
	for i, wrap := range []func(*request) *request{nil, withSpans, withSpans, nil} {
		warm := time.Duration(0)
		if i == 0 {
			warm = rc.size.warm // the later windows follow a loaded one
		}
		if err := p.window(ctx, rc, m, o, warm, rc.window/8, wrap); err != nil {
			return nil, err
		}
		if wrap == nil {
			off = append(off, m.st.p50)
		} else {
			on = append(on, m.st.p50)
			if i == 2 {
				traced = m.measuredWindow
			}
		}
	}
	m.measuredWindow = traced
	v := o.values
	v["trace.overhead_share"] = (on[0] + on[1] - off[0] - off[1]) / (off[0] + off[1])
	v["harness.build_s"] = rc.env.info.BuildS
	v["harness.late_p95_ms"] = m.st.lateP95
	v["serve.p95_ms"] = m.st.p95
	v["serve.p99_ms"] = m.st.p99
	v["predictors.fit_ms"] = m.fitS * 1e3
	p.counters(m, v)
	if p.cluster {
		if err := p.clusterValues(ctx, rc, m, o); err != nil {
			return nil, err
		}
	}

	tw, err := p.newTwin(ctx, rc, m.in, rec)
	if err != nil {
		return nil, err
	}
	defer tw.close()
	gen := p.ops(p, m.in, m.d.base, m.expect)
	rng := rand.New(rand.NewSource(rc.stream()))
	var ops []replayed
	deadline := time.Now().Add(rc.size.replayFor)
	for n := 0; n < rc.size.replayOps && (n < 20 || time.Now().Before(deadline)); n++ {
		r, err := p.replayOp(ctx, tw, m, o, n+1, gen(rng), m.d.nodes[0].base)
		if err != nil {
			return nil, err
		}
		ops = append(ops, r)
	}
	p.layerValues(tw, rec, ops, m, o)
	if rc.spanFile != "" {
		if err := rec.write(rc.spanFile); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// counters turns the /statz deltas of the last window into shares.
func (p *servePlan) counters(m *measured, v map[string]float64) {
	share := func(part, whole uint64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	a, b := m.after, m.before
	answered := a.answered() - b.answered()
	v["serve.cache_hit_share"] = share(a.CacheHits-b.CacheHits, answered)
	v["serve.cell_hit_share"] = share(a.CellHits-b.CellHits, answered)
	v["serve.coalesced_share"] = share(a.CoalescedHits-b.CoalescedHits, answered)
	v["serve.rejected_share"] = share(a.Rejected-b.Rejected, uint64(m.st.requests))
	v["serve.gc_pause_p99_ms"] = a.Process.GCPauseP99MS
	v["serve.heap_mb"] = float64(a.Process.HeapAllocBytes) / (1 << 20)
	reads := (a.DataCache.MemHits - b.DataCache.MemHits) + (a.DataCache.DiskHits - b.DataCache.DiskHits) + (a.DataCache.Misses - b.DataCache.Misses)
	v["dataset.mem_hit_share"] = share(a.DataCache.MemHits-b.DataCache.MemHits, reads)
	v["dataset.spill_hit_share"] = share(a.DataCache.DiskHits-b.DataCache.DiskHits, reads)
	v["dataset.regen_share"] = share(a.DataCache.Misses-b.DataCache.Misses, reads)
	v["dataset.evictions"] = float64(a.DataCache.Evictions - b.DataCache.Evictions)
	v["dataset.resident_mb"] = float64(a.DataCache.ResidentBytes) / (1 << 20)
}

// layerValues condenses the replay's spans into the per-layer metrics and
// the per-operation cost table.
func (p *servePlan) layerValues(tw *twin, rec *recorder, ops []replayed, m *measured, o *outcome) {
	v := o.values
	med := func(name string) float64 { return median(rec.durations(name)) }
	v["serve.decode_us"] = med("serve.decode") * 1e3
	v["serve.encode_us"] = med("serve.encode") * 1e3
	v["opthash.combine_us"] = med("opthash.combine") * 1e3
	v["dataset.acquire_mem_us"] = med("dataset.acquire_mem") * 1e3
	v["dataset.acquire_spill_us"] = med("dataset.acquire_spill") * 1e3
	v["stats.summary_ms"] = med("stats.summary")
	tw.costs.values(rec, v)
	v["predictors.predict_us"] = med("predictors.predict") * 1e3
	v["predictors.restore_ms"] = tw.restoreMS

	// the twin's warm-up regenerated every cell once: that is what a
	// synthesis costs at this cell size (set-up pays it; the cost table
	// below shows whether any operation of the window does)
	v["hurricane.synth_ms"] = median(rec.durationsAll("hurricane.synth"))

	var hit, miss, self, transport, hop, perItem []float64
	for _, r := range ops {
		if r.hit {
			hit = append(hit, r.handler*1e3)
		} else {
			miss = append(miss, r.handler)
		}
		self = append(self, (r.handler-r.tree)*1e3)
		transport = append(transport, (r.loopback-r.handler)*1e3)
		if r.routed > 0 {
			hop = append(hop, (r.routed-r.loopback)*1e3)
		}
		if r.items > 1 {
			perItem = append(perItem, r.handler*1e6/float64(r.items))
		}
	}
	v["serve.handler_hit_us"] = median(hit)
	v["serve.handler_miss_ms"] = median(miss)
	v["serve.self_us"] = median(self)
	v["serve.transport_us"] = median(transport)
	v["serve.batch_item_ns"] = median(perItem)
	v["cluster.router_hop_us"] = median(hop)

	layers := medianByLayer(rec.selfByLayer("replay.op"))
	delete(layers, "replay") // the replay loop's own glue is not the program's
	layers["serve"] += v["serve.self_us"] / 1e3
	layers["transport"] = v["serve.transport_us"] / 1e3
	if m.d.router != nil {
		layers["cluster"] = v["cluster.router_hop_us"] / 1e3
	}
	sum := 0.0
	for _, ms := range layers {
		sum += ms
	}
	o.layers = layers
	o.op = &opSummary{What: "one request of the window's mix", Samples: len(ops), ObservedMS: m.st.p50, SumMS: sum, ResidualMS: m.st.p50 - sum}
	o.note("replay", "%d operations replayed layer by layer (budget %v or %d)", len(ops), m.in.sz.replayFor, m.in.sz.replayOps)
}
