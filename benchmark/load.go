package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// request is one operation a load generator sends. check validates the
// answer and returns how many predictions it carried.
type request struct {
	url   string
	body  []byte
	check func(status int, hdr http.Header, body []byte) (preds int, err error)
	rec   *recorder // traced run: a client span around the request
}

// sample is one finished request as the load generator saw it.
type sample struct {
	at    time.Duration // closed loop: when it was sent; open loop: when it was due; both since window start
	lat   time.Duration // closed loop: send → full response; open loop: due → full response
	late  time.Duration // open loop: how long after its due time it was sent
	preds int           // successful predictions carried
	err   error
}

// send performs one request and times it from start (which the open loop
// sets to the due time).
func send(ctx context.Context, client *http.Client, r *request, start time.Time) (time.Duration, int, error) {
	if r.rec != nil {
		defer r.rec.end(r.rec.begin("client.request", 0, 0))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return time.Since(start), 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, 0, err
	}
	preds, err := r.check(resp.StatusCode, resp.Header, raw)
	return lat, preds, err
}

// closedLoop runs conns() workers for warm+window: each sends its next
// request only after the previous answer arrived. The first warm of it is
// load the system sees and the run does not time (its samples carry a
// negative at): a process that has just started, on cores that have just
// woken, reads slower than it is. gen is called from one worker at a time
// per worker index and draws from that worker's seeded source.
func closedLoop(ctx context.Context, client *http.Client, seed int64, warm, window time.Duration,
	gen func(rng *rand.Rand) *request) []sample {
	n := conns()
	out := make([][]sample, n)
	start := time.Now().Add(warm)
	end := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Now().Before(end) && ctx.Err() == nil {
				r := gen(rng)
				sent := time.Now()
				lat, preds, err := send(ctx, client, r, sent)
				out[w] = append(out[w], sample{at: sent.Sub(start), lat: lat, preds: preds, err: err})
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// arrivals draws the due times of an open loop: rate×window arrivals at
// independent uniform instants, sorted — a Poisson process given its count,
// so every seed offers the same number of requests.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	due := make([]time.Duration, int(rate*window.Seconds()+0.5))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends reqs[i] at start+due[i] whatever the system is doing, over
// at most conns() connections, and times each from its due instant: a
// stall delays the requests behind it and that wait is counted.
func openLoop(ctx context.Context, client *http.Client, due []time.Duration, reqs []*request) []sample {
	type job struct {
		i   int
		due time.Time
	}
	out := make([]sample, len(reqs))
	// sized to the number of sends, so the dispatcher never waits on a
	// busy worker and lateness is only ever the workers' backlog
	jobs := make(chan job, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				late := time.Since(j.due)
				lat, preds, err := send(ctx, client, reqs[j.i], j.due)
				out[j.i] = sample{at: due[j.i], lat: lat, late: late, preds: preds, err: err}
			}
		}()
	}
	for i := range reqs {
		at := start.Add(due[i])
		if ctx.Err() != nil {
			break
		}
		sleepUntil(at)
		jobs <- job{i, at}
	}
	close(jobs)
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep(2) until at. A Go timer
// in an otherwise idle process wakes through epoll, whose timeout counts
// whole milliseconds; an open-loop generator that sends a millisecond late
// measures itself.
func sleepUntil(at time.Time) {
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// loadStats condenses one window's samples: totals over the window, and
// the rate and median latency of each slice of it.
type loadStats struct {
	okPerS, p50, p95, p99 float64 // over the whole window
	lateP95               float64 // open loop: p95 of how late requests were sent, ms
	requests, failed      int
	preds                 int
	slices                []sliceStats
}

type sliceStats struct{ okPerS, p50 float64 }

// summarize counts every sample as attempted and times those sent (open
// loop: due) inside the window, not in the warm-up before it. The window is
// cut into slices of about width: a request's latency belongs to the slice
// it was sent in, and its predictions are spread over the slices it was in
// flight for, so a slice's rate does not jump by a whole request.
func summarize(o *outcome, samples []sample, window, width time.Duration) loadStats {
	var st loadStats
	n := max(int(window/width), 1)
	width = window / time.Duration(n)
	lat := make([][]float64, n)
	preds := make([]float64, n)
	var all, late []float64
	for _, s := range samples {
		st.requests++
		o.attempted++
		if s.err != nil {
			st.failed++
			o.fail("%v", s.err)
			continue
		}
		st.preds += s.preds
		if s.at >= window {
			continue
		}
		if s.at >= 0 { // else warm-up: checked, not timed
			lat[int(s.at/width)] = append(lat[int(s.at/width)], ms(s.lat))
			all = append(all, ms(s.lat))
			late = append(late, ms(s.late))
		}
		for i := max(int(s.at/width), 0); i < n && time.Duration(i)*width < s.at+s.lat; i++ {
			lo, hi := max(s.at, time.Duration(i)*width), min(s.at+s.lat, time.Duration(i+1)*width)
			preds[i] += float64(s.preds) * float64(hi-lo) / float64(max(s.lat, 1))
		}
	}
	timed := 0.0
	for i := range lat {
		timed += preds[i]
		if len(lat[i]) > 0 {
			st.slices = append(st.slices, sliceStats{preds[i] / width.Seconds(), quantile(lat[i], 0.50)})
		}
	}
	st.okPerS = timed / window.Seconds()
	st.p50, st.p95, st.p99 = quantile(all, 0.50), quantile(all, 0.95), quantile(all, 0.99)
	st.lateP95 = quantile(late, 0.95)
	return st
}

// goodSide is how a run condenses the values of its slices (or rounds)
// into the one it reports: the quantile share in from the good end — of a
// time the share-th quantile, of a rate the (1-share)-th. This machine is a
// few cores of a shared host: a neighbour makes a slice read worse, never
// better, and does so for seconds at a time, so the median over slices
// follows the neighbours where the good end follows the program. It is
// the rule "time it several times and keep the best" with the single best
// left out as luck; a change that slows every slice moves it just as far
// as it moves the median.
func goodSide(xs []float64, share float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(xs, share)
	}
	return quantile(xs, 1-share)
}

// quietGenerator makes this process collect a fifth as often while it is
// the load generator of a serving workload. With the default pacing and a
// live heap of a few MB it collects every few dozen 100 KB answers, on the
// cores it shares with the daemon, and how often depends on what the
// process ran before: serve_hot read a sixth faster after table2 had grown
// the heap than on its own. table2, whose work is in this process, keeps
// the default.
func quietGenerator() (restore func()) {
	old := debug.SetGCPercent(500)
	return func() { debug.SetGCPercent(old) }
}

// httpError is the failure of a request the server answered.
func httpError(status int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
}
