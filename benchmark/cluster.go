package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// The write path of cluster_mixed: a partition no predict of the mix
// touches, so its fits sit beside the reads, not in front of them.
const (
	fitScheme     = "krasowska2021"
	fitCompressor = "zfp"
	// an option no served scheme depends on: the invalidate is broadcast,
	// journaled and answered, and evicts nothing the mix reads
	neutralKey = "pressio:nthreads"
)

// fitLog is what the background writer of cluster_mixed observed.
type fitLog struct {
	mu       sync.Mutex
	ackMS    []float64 // POST /v1/fit → 202
	readyS   []float64 // POST /v1/fit → job done and a routed predict answers from the new model
	lagMS    []float64 // job done → every other node lists the model
	asked    uint64    // predicts the writer sent to see the new model
	failures []string
}

func (l *fitLog) predicts() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.asked
}

// oneFit runs one write of the mix: a fit with job-unique bounds through
// the router, the wait until a routed predict serves the new model, and the
// wait until the other nodes list it.
func (l *fitLog) oneFit(ctx context.Context, d *deployment, in *serveInputs, seq int) {
	fail := func(format string, args ...any) {
		l.mu.Lock()
		l.failures = append(l.failures, fmt.Sprintf("fit %d: ", seq)+fmt.Sprintf(format, args...))
		l.mu.Unlock()
	}
	bounds := []float64{in.fitBounds[0] * (1 + 1e-3*float64(seq+1)), in.fitBounds[1] * (1 + 1e-3*float64(seq+1))}
	body := fitBody(fitScheme, fitCompressor, []string{"P", "U"}, 2, in.sz.hotDims, bounds)
	start := time.Now()
	status, raw, hdr, err := d.doHeader(ctx, http.MethodPost, d.base+"/v1/fit", body)
	if err != nil || status != http.StatusAccepted {
		fail("not accepted: HTTP %d %s %v", status, raw, err)
		return
	}
	ack := time.Since(start)
	var fr struct {
		JobID string `json:"job_id"`
	}
	if json.Unmarshal(raw, &fr) != nil || fr.JobID == "" {
		fail("202 without job_id: %s", raw)
		return
	}
	model, err := waitJob(ctx, d, fr.JobID)
	if err != nil {
		fail("%v", err)
		return
	}
	done := time.Now()
	// a routed predict on the partition must answer from the new model
	probe := singleBody(fitScheme, fitCompressor, bounds[0], cell{"P", 0}, in.sz.hotDims)
	for {
		status, raw, err := d.do(ctx, http.MethodPost, d.base+"/v1/predict", probe)
		l.mu.Lock()
		l.asked++
		l.mu.Unlock()
		a, perr := parseSingle(status, raw)
		if err == nil && perr == nil && a.Model == model {
			break
		}
		if time.Since(done) > 10*time.Second {
			fail("no routed predict served model %s within 10 s (last: HTTP %d %s)", model, status, raw)
			return
		}
		if sleepCtx(ctx, 2*time.Millisecond) != nil {
			return
		}
	}
	ready := time.Since(start)
	// replication lag: the owner said done; when do the others list it?
	owner := hdr.Get("X-Served-By")
	for _, p := range d.nodes {
		for p.name != owner { // until p lists the model
			var models []struct {
				Key string `json:"key"`
			}
			listed := false
			if d.getJSON(ctx, p.base+"/v1/models", &models) == nil {
				for _, m := range models {
					listed = listed || m.Key == model
				}
			}
			if listed {
				break
			}
			if time.Since(done) > 10*time.Second {
				fail("%s never listed model %s", p.name, model)
				return
			}
			if sleepCtx(ctx, 2*time.Millisecond) != nil {
				return
			}
		}
	}
	lag := time.Since(done)
	l.mu.Lock()
	l.ackMS = append(l.ackMS, ms(ack))
	l.readyS = append(l.readyS, ready.Seconds())
	l.lagMS = append(l.lagMS, ms(lag))
	l.mu.Unlock()
}

// writer runs the mix's writes on a timer until the window ends: a fit
// every sz.fitEvery, the first an eighth of an interval in, and an
// invalidate of the neutral key half an interval after each. A fit that
// could not finish inside the window is not started.
func (l *fitLog) writer(ctx context.Context, m *measured, window time.Duration) {
	d, in := m.d, m.in
	start := time.Now()
	every := in.sz.fitEvery
	for n := 0; ; n++ {
		at := every/8 + time.Duration(n)*every
		seq := m.fitSeq // unique on this deployment, across windows: a repeated fit is answered from the journal
		m.fitSeq++
		if at+every/4 >= window || sleepCtx(ctx, time.Until(start.Add(at))) != nil {
			return
		}
		l.oneFit(ctx, d, in, seq)
		if at+every/2 >= window || sleepCtx(ctx, time.Until(start.Add(at+every/2))) != nil {
			return
		}
		body := fmt.Sprintf(`{"keys":[%q]}`, neutralKey)
		if status, raw, err := d.do(ctx, http.MethodPost, d.base+"/v1/invalidate", []byte(body)); err != nil || status != http.StatusOK {
			l.mu.Lock()
			l.failures = append(l.failures, fmt.Sprintf("invalidate %d: HTTP %d %s %v", seq, status, raw, err))
			l.mu.Unlock()
		}
	}
}

// openWindow is the measured window of cluster_mixed: random arrivals at
// sz.rate sent open-loop through the router, with the writer beside them.
func (p *servePlan) openWindow(ctx context.Context, rc *runCtx, m *measured, gen func(*rand.Rand) *request, window time.Duration) ([]sample, *fitLog) {
	rng := rand.New(rand.NewSource(rc.stream()))
	due := arrivals(rng, rc.size.rate, window)
	reqs := make([]*request, len(due))
	for i := range reqs {
		r := gen(rng)
		inner := r.check
		r = &request{url: r.url, body: r.body, check: func(status int, hdr http.Header, body []byte) (int, error) {
			if by := hdr.Get("X-Served-By"); by != "" {
				m.countServed(by)
			}
			return inner(status, hdr, body)
		}}
		reqs[i] = r
	}
	log := &fitLog{}
	wctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); log.writer(wctx, m, window) }()
	samples := openLoop(ctx, m.d.client, due, reqs)
	stop()
	wg.Wait()
	return samples, log
}

func (m *measured) countServed(by string) {
	m.servedMu.Lock()
	m.servedBy[by]++
	m.servedMu.Unlock()
}

// mixedOps is the read side of cluster_mixed: nine hot single predicts to
// every single predict at a fresh bound.
func mixedOps(p *servePlan, in *serveInputs, base string, expect map[cell]float64) func(*rand.Rand) *request {
	hot := hotOps(p, in, base, expect)
	return func(rng *rand.Rand) *request {
		if rng.Intn(10) == 0 {
			return missSingle(p, in, base, rng)
		}
		return hot(rng)
	}
}

var clusterMixed = &servePlan{
	name: "cluster_mixed", scheme: "rahman2023", compressor: "sz3", cluster: true, slices: 2,
	dims: hotDims, steps: func(sz sizing) int { return sz.hotSteps }, ops: mixedOps,
}
