package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// fields are the 13 synthetic Hurricane variables (hurricane.FieldNames),
// spelled out so the end-to-end path names no internal package.
var fields = []string{"CLOUD", "P", "PRECIP", "QCLOUD", "QGRAUP", "QICE", "QRAIN", "QSNOW", "QVAPOR", "TC", "U", "V", "W"}

type cell struct {
	field string
	step  int
}

// sizing holds every size a workload uses, so the self-test can run the
// same code at toy size.
type sizing struct {
	hotDims    [3]int        // cells of the hot set and of every fit
	cellDims   [3]int        // cells of serve_sweep and of table2
	coldDims   [3]int        // cells of serve_cold
	hotSteps   int           // hot set = 13 fields × hotSteps
	batchItems int           // items of one serve_hot request
	sweepSteps int           // serve_sweep residents = 13 fields × sweepSteps
	coldSteps  int           // serve_cold working set = 13 fields × coldSteps
	coldTier   int64         // serve_cold memory tier, bytes
	tableSteps int           // table2 steps per field
	resumes    int           // table2 resume runs per round
	rounds     int           // table2 minimum rounds
	reps       int           // deployments per run: each is set up afresh and measured for window/reps
	warm       time.Duration // closed loops: load sent before each deployment's window opens, untimed
	slice      time.Duration // width of the slices a window is cut into; a plan may widen it
	rate       float64       // cluster_mixed arrivals per second
	fitEvery   time.Duration
	replayOps  int           // traced run: ops replayed in-process, at most
	replayFor  time.Duration // traced run: replay time budget
	ladder     []float64     // traced run of cluster_mixed: offered rates, per second
	ladderStep time.Duration // and how long each is held
}

var fullSize = sizing{
	hotDims: [3]int{16, 32, 32}, cellDims: [3]int{32, 32, 64}, coldDims: [3]int{64, 64, 96},
	hotSteps: 8, batchItems: 4004, sweepSteps: 3, coldSteps: 1, coldTier: 8 << 20,
	tableSteps: 1, resumes: 40, rounds: 3,
	reps: 3, warm: time.Second, slice: 250 * time.Millisecond,
	rate: 200, fitEvery: 2 * time.Second,
	replayOps: 500, replayFor: 3 * time.Second,
	ladder: []float64{200, 400, 800, 1600}, ladderStep: 1500 * time.Millisecond,
}

var toySize = sizing{
	hotDims: [3]int{8, 8, 8}, cellDims: [3]int{8, 8, 8}, coldDims: [3]int{8, 8, 8},
	hotSteps: 2, batchItems: 130, sweepSteps: 2, coldSteps: 2, coldTier: 20 << 10,
	tableSteps: 1, resumes: 3, rounds: 1,
	reps: 2, warm: 50 * time.Millisecond, slice: 50 * time.Millisecond,
	rate: 100, fitEvery: 400 * time.Millisecond,
	replayOps: 20, replayFor: 300 * time.Millisecond,
	ladder: []float64{100, 200}, ladderStep: 200 * time.Millisecond,
}

func dimsJSON(d [3]int) string { return fmt.Sprintf("[%d,%d,%d]", d[0], d[1], d[2]) }

func fmtBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// freshBound draws an error bound log-uniformly from [1e-6, 1e-2]: the
// sequence an autotuner searching bounds would send.
func freshBound(rng *rand.Rand) float64 { return math.Pow(10, -6+4*rng.Float64()) }

// singleBody is a POST /v1/predict body naming one cell.
func singleBody(scheme, compressor string, bound float64, c cell, dims [3]int) []byte {
	return []byte(fmt.Sprintf(`{"scheme":%q,"compressor":%q,"options":{"pressio:abs":%s},"data":{"field":%q,"step":%d,"dims":%s}}`,
		scheme, compressor, fmtBound(bound), c.field, c.step, dimsJSON(dims)))
}

// batchBody is a columnar POST /v1/predict/batch body.
func batchBody(scheme, compressor string, bound float64, cells []cell, dims [3]int) []byte {
	fs := make([]string, len(cells))
	ss := make([]string, len(cells))
	for i, c := range cells {
		fs[i] = strconv.Quote(c.field)
		ss[i] = strconv.Itoa(c.step)
	}
	return []byte(fmt.Sprintf(`{"scheme":%q,"compressor":%q,"options":{"pressio:abs":%s},"dims":%s,"fields":[%s],"steps":[%s]}`,
		scheme, compressor, fmtBound(bound), dimsJSON(dims), strings.Join(fs, ","), strings.Join(ss, ",")))
}

// answer is the part of a predict response the checks read.
type answer struct {
	Prediction float64 `json:"prediction"`
	Cached     bool    `json:"cached"`
	Model      string  `json:"model"`
	Error      string  `json:"error"`
}

type batchAnswer struct {
	Count   int      `json:"count"`
	Errors  int      `json:"errors"`
	Results []answer `json:"results"`
}

func parseSingle(status int, body []byte) (answer, error) {
	var a answer
	if status != http.StatusOK {
		return a, httpError(status, body)
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("bad predict response: %v", err)
	}
	if math.IsNaN(a.Prediction) || math.IsInf(a.Prediction, 0) {
		return a, fmt.Errorf("prediction is not finite")
	}
	return a, nil
}

func parseBatch(status int, body []byte, items int) (batchAnswer, error) {
	var b batchAnswer
	if status != http.StatusOK {
		return b, httpError(status, body)
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return b, fmt.Errorf("bad batch response: %v", err)
	}
	if b.Count != items || len(b.Results) != items || b.Errors != 0 {
		return b, fmt.Errorf("batch answered count=%d results=%d errors=%d, want %d items and no errors", b.Count, len(b.Results), b.Errors, items)
	}
	for i, r := range b.Results {
		if r.Error != "" || math.IsNaN(r.Prediction) || math.IsInf(r.Prediction, 0) {
			return b, fmt.Errorf("batch item %d: error %q, prediction %v", i, r.Error, r.Prediction)
		}
	}
	return b, nil
}

// closeTo is the benchmark's equality for predictions computed twice:
// 1e-9 relative, because khan2023 differs in the last place between runs
// on more than one core.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// servePlan is one serving workload: what is deployed, how it is warmed,
// and which requests the measured window sends.
type servePlan struct {
	name       string
	scheme     string
	compressor string
	cluster    bool
	args       func(sz sizing) []string // extra predictd flags (single node)
	dims       func(sz sizing) [3]int
	steps      func(sz sizing) int // working set = every field × steps
	hot        bool                // the window sends primed requests only
	slices     int                 // a slice of the window is this many sizing.slice wide (0: one)
	warmBatch  bool                // warm the working set by one batch per step, not by single predicts
	// ops returns the measured window's request generator; expect holds
	// the answers the warm-up computed for the working set at in.bound.
	ops func(p *servePlan, in *serveInputs, base string, expect map[cell]float64) func(*rand.Rand) *request
}

// serveInputs is everything generated from the seed for one serving run.
type serveInputs struct {
	seed      int64
	sz        sizing
	dims      [3]int
	cells     []cell
	bound     float64    // the one bound of the hot set, and the warm-up bound
	fitBounds [2]float64 // training bounds of the priming fit
	verify    float64    // the fresh bound of the cross-run verification set
}

func (p *servePlan) inputs(seed int64, sz sizing) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{seed: seed, sz: sz, dims: p.dims(sz)}
	for step := 0; step < p.steps(sz); step++ {
		for _, f := range fields {
			in.cells = append(in.cells, cell{f, step})
		}
	}
	in.bound = 1e-4 * (1 + rng.Float64())
	in.fitBounds = [2]float64{1e-5 * (1 + rng.Float64()), 1e-3 * (1 + rng.Float64())}
	in.verify = freshBound(rng)
	return in
}

func (p *servePlan) single(bound float64, c cell, in *serveInputs) []byte {
	return singleBody(p.scheme, p.compressor, bound, c, in.dims)
}

// verifyCells is the slice of the working set the cross-run check covers.
func (in *serveInputs) verifyCells() []cell { return in.cells[:len(fields)] }

// fitBody is a POST /v1/fit body: fields × steps × bounds at dims.
func fitBody(scheme, compressor string, flds []string, steps int, dims [3]int, bounds []float64) []byte {
	bs := make([]string, len(bounds))
	for i, b := range bounds {
		bs[i] = fmtBound(b)
	}
	fs := make([]string, len(flds))
	for i, f := range flds {
		fs[i] = strconv.Quote(f)
	}
	return []byte(fmt.Sprintf(`{"scheme":%q,"compressor":%q,"training":{"fields":[%s],"steps":%d,"dims":%s,"bounds":[%s]}}`,
		scheme, compressor, strings.Join(fs, ","), steps, dimsJSON(dims), strings.Join(bs, ",")))
}

// fit posts a training job and waits until it is done. It returns the model
// key the job published and the node that took the job (through a router).
func fit(ctx context.Context, d *deployment, body []byte) (model, servedBy string, err error) {
	status, raw, hdr, err := d.doHeader(ctx, http.MethodPost, d.base+"/v1/fit", body)
	if err != nil {
		return "", "", err
	}
	if status != http.StatusAccepted {
		return "", "", fmt.Errorf("fit: %v", httpError(status, raw))
	}
	var fr struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(raw, &fr); err != nil || fr.JobID == "" {
		return "", "", fmt.Errorf("fit: 202 without job_id: %s", raw)
	}
	model, err = waitJob(ctx, d, fr.JobID)
	return model, hdr.Get("X-Served-By"), err
}

func waitJob(ctx context.Context, d *deployment, id string) (model string, err error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jv struct {
			Status, Error, Model string
		}
		if d.getJSON(ctx, d.base+"/v1/jobs/"+id, &jv) == nil {
			switch jv.Status {
			case "done":
				return jv.Model, nil
			case "failed":
				return "", fmt.Errorf("fit job %s failed: %s", id, jv.Error)
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("fit job %s never finished", id)
		}
		if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
			return "", err
		}
	}
}

// setUp deploys the plan's system and warms it: priming fit when the
// scheme trains, then one answer for every cell of the working set at the
// hot bound — the first computed answer of every hot key.
func (p *servePlan) setUp(ctx context.Context, env *environment, in *serveInputs) (*measured, error) {
	start := time.Now()
	var d *deployment
	var err error
	if p.cluster {
		d, err = env.deployCluster(ctx, 2)
	} else {
		var args []string
		if p.args != nil {
			args = p.args(in.sz)
		}
		d, err = env.deploySingle(ctx, args...)
	}
	if err != nil {
		return nil, err
	}
	m := &measured{d: d, in: in}
	if p.trains() {
		fitStart := time.Now()
		if _, m.owner, err = fit(ctx, d, fitBody(p.scheme, p.compressor, fields, 1, in.sz.hotDims, in.fitBounds[:])); err != nil {
			d.close()
			return nil, err
		}
		m.fitS = time.Since(fitStart).Seconds()
	}
	if m.expect, err = p.answers(ctx, d, in, in.cells, in.bound, p.warmBatch); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m.setupS = time.Since(start).Seconds()
	return m, nil
}

// trains reports whether the served scheme needs a priming fit: khan2023
// computes its answer, every other served scheme predicts from a model.
func (p *servePlan) trains() bool { return p.scheme != "khan2023" }

// answers asks for every given cell at one bound — one batch per step, or
// single predicts over the load generator's connections — and returns the
// predictions.
func (p *servePlan) answers(ctx context.Context, d *deployment, in *serveInputs, cells []cell, bound float64, batch bool) (map[cell]float64, error) {
	got := map[cell]float64{}
	if batch {
		for lo := 0; lo < len(cells); lo += len(fields) {
			part := cells[lo:min(lo+len(fields), len(cells))]
			status, raw, err := d.do(ctx, http.MethodPost, d.base+"/v1/predict/batch",
				batchBody(p.scheme, p.compressor, bound, part, in.dims))
			if err != nil {
				return nil, err
			}
			b, err := parseBatch(status, raw, len(part))
			if err != nil {
				return nil, err
			}
			for i, c := range part {
				got[c] = b.Results[i].Prediction
			}
		}
		return got, nil
	}
	type reply struct {
		c   cell
		v   float64
		err error
	}
	work := make(chan cell, len(cells))
	for _, c := range cells {
		work <- c
	}
	close(work)
	replies := make(chan reply, len(cells))
	for w := 0; w < conns(); w++ {
		go func() {
			for c := range work {
				status, raw, err := d.do(ctx, http.MethodPost, d.base+"/v1/predict", p.single(bound, c, in))
				var a answer
				if err == nil {
					a, err = parseSingle(status, raw)
				}
				replies <- reply{c, a.Prediction, err}
			}
		}()
	}
	var first error
	for range cells {
		r := <-replies
		if r.err != nil && first == nil {
			first = r.err
		}
		got[r.c] = r.v
	}
	return got, first
}

// run is the untraced run of a serving workload. The window is divided
// among sizing.reps deployments, each set up from nothing, so that no one
// process (its heap pacing, its memory layout) decides the result and
// setup_s is a median; each deployment is loaded for sizing.warm before
// its window opens, its window is cut into slices, and the reported rate
// and latency are the good-side tenth over the run's slices (see goodSide).
func (p *servePlan) run(ctx context.Context, rc *runCtx) (*outcome, error) {
	defer quietGenerator()()
	o := newOutcome()
	in := p.inputs(rc.seed, rc.size)
	part := rc.window / time.Duration(rc.size.reps)
	var first *measured
	var setup, rate, p50, rss []float64
	requests := 0
	for rep := 0; rep < rc.size.reps; rep++ {
		m, err := p.prepare(ctx, rc, in, o, first)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = m
		}
		err = p.window(ctx, rc, m, o, rc.size.warm, part, nil)
		rss = append(rss, m.d.peakRSSMiB())
		m.d.close()
		if err != nil {
			return nil, err
		}
		setup = append(setup, m.setupS)
		for _, sl := range m.st.slices {
			rate, p50 = append(rate, sl.okPerS), append(p50, sl.p50)
		}
		requests += m.st.requests
	}
	o.slices = map[string][]float64{"setup_s": setup, "ok_per_s": rate, "p50_ms": p50, "max_rss_mb": rss}
	o.values["setup_s"] = median(setup)
	o.values["ok_per_s"] = goodSide(rate, 0.1, false)
	o.values["p50_ms"] = goodSide(p50, 0.1, true)
	o.values["max_rss_mb"] = median(rss)
	o.note("samples", "%d requests over %d deployments, each warmed for %v and measured for %v; %d slices of %v, about %d requests each; ok_per_s and p50_ms are the good-side tenth over slices, setup_s and max_rss_mb the median over deployments",
		requests, rc.size.reps, rc.size.warm, part, len(rate), p.sliceWidth(rc.size), requests/max(len(rate), 1))
	return o, nil
}

// sliceWidth is the width of the plan's slices: wide enough to hold a few
// dozen of its requests, narrow enough that a run has dozens of them.
func (p *servePlan) sliceWidth(sz sizing) time.Duration {
	return sz.slice * time.Duration(max(p.slices, 1))
}

// measured is one deployment that has been set up, and the last window run
// on it.
type measured struct {
	d         *deployment
	in        *serveInputs
	expect    map[cell]float64 // the warm-up's answers: the first computed answer of every hot key
	refVerify map[cell]float64 // the first deployment's single-predict answers at in.verify
	owner     string           // cluster: the node that took the priming fit, the partition's owner
	setupS    float64
	fitS      float64 // the priming fit, POST → done
	fitSeq    int     // cluster: fits the writer has posted to this deployment

	measuredWindow
	servedMu sync.Mutex
}

// measuredWindow is what one window on a deployment left behind.
type measuredWindow struct {
	st       loadStats
	before   statz
	after    statz
	fits     *fitLog
	servedBy map[string]int // X-Served-By counts (cluster), guarded by measured.servedMu
}

// prepare sets the system up once. The first deployment of a run is the
// oracle of the cross-run check — its answers were computed by another
// process, one request at a time — and every later one is held to it.
func (p *servePlan) prepare(ctx context.Context, rc *runCtx, in *serveInputs, o *outcome, first *measured) (*measured, error) {
	m, err := p.setUp(ctx, rc.env, in)
	if err != nil {
		return nil, err
	}
	if first == nil {
		if !p.hot {
			if m.refVerify, err = p.answers(ctx, m.d, in, in.verifyCells(), in.verify, false); err != nil {
				m.d.close()
				return nil, fmt.Errorf("reference answers: %w", err)
			}
		}
		return m, nil
	}
	m.refVerify = first.refVerify
	for c, v := range first.expect {
		o.check(closeTo(v, m.expect[c]), "%s t%d: this deployment answers %v, the first one answered %v", c.field, c.step, m.expect[c], v)
	}
	return m, nil
}

// window runs one measured window on m's deployment, after warm of the
// same load untimed (closed loops), and checks the answers. wrap, when set,
// wraps every request (the traced run records spans through it).
func (p *servePlan) window(ctx context.Context, rc *runCtx, m *measured, o *outcome, warm, window time.Duration, wrap func(*request) *request) error {
	var err error
	if m.before, err = m.d.statz(ctx); err != nil {
		return err
	}
	gen := p.ops(p, m.in, m.d.base, m.expect)
	if wrap != nil {
		inner := gen
		gen = func(rng *rand.Rand) *request { return wrap(inner(rng)) }
	}
	var samples []sample
	m.fits, m.servedBy = nil, map[string]int{}
	if p.cluster {
		samples, m.fits = p.openWindow(ctx, rc, m, gen, window)
	} else {
		samples = closedLoop(ctx, m.d.client, rc.stream(), warm, window, gen)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.after, err = m.d.statz(ctx); err != nil {
		return err
	}
	m.st = summarize(o, samples, window, p.sliceWidth(rc.size))
	if m.fits != nil {
		o.attempted += len(m.fits.readyS) + len(m.fits.failures)
		for _, f := range m.fits.failures {
			o.fail("%s", f)
		}
		o.note("fits", "%d fits beside the reads; fit_ready_s median %.3f, fit_ack_ms median %.2f, repl_lag_ms median %.2f",
			len(m.fits.readyS), median(m.fits.readyS), median(m.fits.ackMS), median(m.fits.lagMS))
	}

	// every prediction sent must be in exactly one /statz bucket
	if m.st.failed == 0 {
		sent := uint64(m.st.preds) + m.fits.predicts()
		counted := m.after.answered() - m.before.answered()
		o.check(counted == sent, "/statz accounts for %d predictions, %d were sent", counted, sent)
	}
	// a fresh bound computed here by the batch path must agree with the
	// single-predict answer the run's first deployment gave (on that one,
	// the batch is answered from the cells those single predicts cached)
	if m.refVerify != nil {
		got, err := p.answers(ctx, m.d, m.in, m.in.verifyCells(), m.in.verify, true)
		if err != nil {
			o.check(false, "verification batch: %v", err)
		}
		for c, v := range got {
			o.check(closeTo(v, m.refVerify[c]), "%s t%d at %g: batch answers %v, single predict answered %v", c.field, c.step, m.in.verify, v, m.refVerify[c])
		}
		m.refVerify = nil
	}
	return nil
}

// --- the single-node plans ---

func hotOps(p *servePlan, in *serveInputs, base string, expect map[cell]float64) func(*rand.Rand) *request {
	reqs := make([]*request, len(in.cells))
	for i, c := range in.cells {
		want := expect[c]
		reqs[i] = &request{
			url:  base + "/v1/predict",
			body: p.single(in.bound, c, in),
			check: func(status int, _ http.Header, body []byte) (int, error) {
				a, err := parseSingle(status, body)
				if err != nil {
					return 0, err
				}
				if !a.Cached || a.Prediction != want {
					return 0, fmt.Errorf("hot %s t%d: cached=%v prediction=%v, first computed answer was %v", c.field, c.step, a.Cached, a.Prediction, want)
				}
				return 1, nil
			},
		}
	}
	return func(rng *rand.Rand) *request { return reqs[rng.Intn(len(reqs))] }
}

// batchOps is serve_hot's window: eight large columnar batches drawn (with
// repetition) from the hot set, every item a cell-cache hit. The first
// answer to each request is parsed and every item held to the single-predict
// answer for its cell; its bytes are kept, and a later answer that is
// byte-identical to a checked one needs no second parse — so the generator,
// which shares the cores with the daemon, spends them on sending.
func batchOps(p *servePlan, in *serveInputs, base string, expect map[cell]float64) func(*rand.Rand) *request {
	draw := rand.New(rand.NewSource(in.seed))
	reqs := make([]*request, 8)
	for k := range reqs {
		part := make([]cell, in.sz.batchItems)
		for i := range part {
			part[i] = in.cells[draw.Intn(len(in.cells))]
		}
		var checked atomic.Pointer[[]byte]
		reqs[k] = &request{
			url:  base + "/v1/predict/batch",
			body: batchBody(p.scheme, p.compressor, in.bound, part, in.dims),
			check: func(status int, _ http.Header, body []byte) (int, error) {
				if prev := checked.Load(); prev != nil && status == http.StatusOK && bytes.Equal(*prev, body) {
					return len(part), nil
				}
				b, err := parseBatch(status, body, len(part))
				if err != nil {
					return 0, err
				}
				for i, r := range b.Results {
					if !r.Cached || !closeTo(r.Prediction, expect[part[i]]) {
						return 0, fmt.Errorf("batch item %s t%d: cached=%v prediction=%v, single predict answered %v",
							part[i].field, part[i].step, r.Cached, r.Prediction, expect[part[i]])
					}
				}
				kept := bytes.Clone(body)
				checked.Store(&kept)
				return len(part), nil
			},
		}
	}
	return func(rng *rand.Rand) *request { return reqs[rng.Intn(len(reqs))] }
}

func sweepOps(p *servePlan, in *serveInputs, base string, _ map[cell]float64) func(*rand.Rand) *request {
	steps := p.steps(in.sz)
	return func(rng *rand.Rand) *request {
		step := rng.Intn(steps)
		part := in.cells[step*len(fields) : (step+1)*len(fields)]
		bound := freshBound(rng)
		return &request{
			url:  base + "/v1/predict/batch",
			body: batchBody(p.scheme, p.compressor, bound, part, in.dims),
			check: func(status int, _ http.Header, body []byte) (int, error) {
				b, err := parseBatch(status, body, len(part))
				if err != nil {
					return 0, err
				}
				for i, r := range b.Results {
					if r.Cached {
						return 0, fmt.Errorf("sweep item %s t%d at fresh bound %g answered cached", part[i].field, part[i].step, bound)
					}
				}
				return len(part), nil
			},
		}
	}
}

// missSingle is one single predict at a fresh bound: never a cache hit.
func missSingle(p *servePlan, in *serveInputs, base string, rng *rand.Rand) *request {
	c := in.cells[rng.Intn(len(in.cells))]
	bound := freshBound(rng)
	return &request{
		url:  base + "/v1/predict",
		body: p.single(bound, c, in),
		check: func(status int, _ http.Header, body []byte) (int, error) {
			a, err := parseSingle(status, body)
			if err != nil {
				return 0, err
			}
			if a.Cached {
				return 0, fmt.Errorf("%s t%d at fresh bound %g answered cached", c.field, c.step, bound)
			}
			return 1, nil
		},
	}
}

func coldOps(p *servePlan, in *serveInputs, base string, _ map[cell]float64) func(*rand.Rand) *request {
	return func(rng *rand.Rand) *request { return missSingle(p, in, base, rng) }
}

func hotDims(sz sizing) [3]int  { return sz.hotDims }
func cellDims(sz sizing) [3]int { return sz.cellDims }

var serveHot = &servePlan{
	name: "serve_hot", scheme: "rahman2023", compressor: "sz3", hot: true,
	dims: hotDims, steps: func(sz sizing) int { return sz.hotSteps }, ops: batchOps,
}

var serveSingle = &servePlan{
	name: "serve_single", scheme: "rahman2023", compressor: "sz3", hot: true,
	dims: hotDims, steps: func(sz sizing) int { return sz.hotSteps }, ops: hotOps,
}

var serveSweep = &servePlan{
	name: "serve_sweep", scheme: "rahman2023", compressor: "sz3", warmBatch: true, slices: 2,
	dims: cellDims, steps: func(sz sizing) int { return sz.sweepSteps }, ops: sweepOps,
}

var serveCold = &servePlan{
	name: "serve_cold", scheme: "khan2023", compressor: "sz3",
	args: func(sz sizing) []string {
		return []string{"-data-cache-bytes", strconv.FormatInt(sz.coldTier, 10), "-data-spill", "{dir}/spill"}
	},
	dims: func(sz sizing) [3]int { return sz.coldDims }, steps: func(sz sizing) int { return sz.coldSteps }, ops: coldOps,
}
