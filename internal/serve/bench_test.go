package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hurricane"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/store"
)

// warmBatchItems is warmBatch16's batch: each of its 16 cells twice.
const warmBatchItems = 32

// warmBatch16 builds a server and a khan2023 batch naming 16 cells twice
// each, and runs the batch once, so every cell is resident in the cache:
// each call of the returned function is then one all-hit
// predictBatchItems pass — 16 cache lookups, 16 copies from the
// distinct-cell table — the op BenchmarkServePredictBatch times and
// TestPredictBatchWarmPathAllocatesNothing counts allocations of.
func warmBatch16(tb testing.TB) (hitPass func() (hits int)) {
	tb.Helper()
	st, err := store.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	s, err := New(st, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Drain() })

	scheme, err := core.GetScheme("khan2023")
	if err != nil {
		tb.Fatal(err)
	}
	dims := []int{8, 8, 8}
	g := newBatchGroup("khan2023", "sz3", scheme, pressio.Options{}, nil, 0, dims)
	const cells = 16
	sc := &batchScratch{
		req:     BatchRequest{Scheme: "khan2023", Compressor: "sz3", Dims: dims},
		results: make([]BatchItemResult, warmBatchItems),
	}
	fields := []string{"P", "TC", "QVAPOR", "W"}
	for i := 0; i < warmBatchItems; i++ {
		c := i % cells
		sc.req.Fields = append(sc.req.Fields, fields[c%len(fields)])
		sc.req.Steps = append(sc.req.Steps, c/len(fields))
	}
	sc.internFields()
	ctx := context.Background()

	// warm pass: first occurrences miss and populate the cache through
	// the tiered dataset cache, repeats copy them; every later pass is
	// then all hits
	if hits, errs := s.predictBatchItems(ctx, g, sc); errs != 0 || hits != warmBatchItems-cells {
		tb.Fatalf("warm pass: hits=%d errs=%d (want %d hits, 0 errs): %+v", hits, errs, warmBatchItems-cells, sc.results[0])
	}
	return func() int {
		hits, _ := s.predictBatchItems(ctx, g, sc)
		return hits
	}
}

// BenchmarkServePredictBatch measures the steady-state batch hot path:
// one 32-item batch over 16 cells through predictBatchItems with every
// cell resident in the cache. Its ns/op is gated in BENCH_kernels.json;
// that the path allocates nothing is machine-independent and pinned in
// tier-1 by TestPredictBatchWarmPathAllocatesNothing.
func BenchmarkServePredictBatch(b *testing.B) {
	hitPass := warmBatch16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := hitPass(); hits != warmBatchItems {
			b.Fatalf("iteration %d: %d/%d hits", i, hits, warmBatchItems)
		}
	}
}

// TestPredictBatchWarmPathAllocatesNothing pins DESIGN §15's invariant
// where every change runs it: an all-hit batch (pooled scratch, struct
// cell keys, shared interval slices, the distinct-cell table) performs
// zero allocations, so a regression that reintroduces per-item garbage
// fails tier-1 on any machine, not only an opt-in benchmark gate.
func TestPredictBatchWarmPathAllocatesNothing(t *testing.T) {
	hitPass := warmBatch16(t)
	if allocs := testing.AllocsPerRun(100, func() {
		if hits := hitPass(); hits != warmBatchItems {
			t.Fatalf("%d/%d hits on the warm path", hits, warmBatchItems)
		}
	}); allocs != 0 {
		t.Errorf("warm %d-item batch: %v allocs/op, want 0", warmBatchItems, allocs)
	}
}

// BenchmarkServePredictCold is the in-process twin of the benchmark's
// serve_cold workload: khan2023/sz3 single predicts through the handler,
// each over one of 13 cells of 64x64x96 (1.5 MiB; one per hurricane
// field) picked at random, at a bound never asked before, against an
// 8 MiB memory tier with a spill dir — five cells fit, so three requests
// in five reload their cell from its spill file. One client per
// GOMAXPROCS. It reports the share of requests that reloaded (spill-hit),
// the share of those reloads that were hashed (hashed/reload), and the
// share of khan estimates a cell's sorted residual sample answered
// (from-sample/op: a reloaded cell answers from the sample its slot
// kept); use it with -cpuprofile/-memprofile to see what a cold predict
// pays. Not in BENCH_kernels.json: ns/op rows drift by tens of percent on
// a shared host.
func BenchmarkServePredictCold(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s, err := New(st, Config{DataCacheBytes: 8 << 20, DataSpillDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()
	fields := hurricane.FieldNames
	predict := func(field string, bound float64) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(fmt.Sprintf(
			`{"scheme":"khan2023","compressor":"sz3","options":{"pressio:abs":%g},"data":{"field":%q,"step":0,"dims":[64,64,96]}}`,
			bound, field))))
		if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"cached":true`) {
			b.Errorf("%s at fresh bound %g: HTTP %d %s", field, bound, w.Code, w.Body)
		}
	}
	for _, f := range fields { // synthesize and spill every cell
		predict(f, 1e-3)
	}

	var clients atomic.Int64
	before := s.data.Stats()
	sampled, asked := predictors.KhanSampleAnswers()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(clients.Add(1)))
		for pb.Next() {
			// log-uniform in [1e-6, 1e-2], as an autotuner searching bounds
			predict(fields[rng.Intn(len(fields))], math.Pow(10, -6+4*rng.Float64()))
		}
	})
	b.StopTimer()
	after := s.data.Stats()
	reloads := float64(after.DiskHits - before.DiskHits)
	b.ReportMetric(reloads/float64(b.N), "spill-hit/op")
	if reloads > 0 {
		b.ReportMetric(float64(after.DigestChecks-before.DigestChecks)/reloads, "hashed/reload")
	}
	if sampledAfter, askedAfter := predictors.KhanSampleAnswers(); askedAfter > asked {
		b.ReportMetric(float64(sampledAfter-sampled)/float64(askedAfter-asked), "from-sample/op")
	}
}

// replyRecorder is a reusable http.ResponseWriter for in-process handler
// measurements: it keeps the status and the body in storage that survives
// from one request to the next, so what a benchmark counts is the
// handler's work and not a fresh httptest.ResponseRecorder's.
type replyRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *replyRecorder) Header() http.Header         { return w.header }
func (w *replyRecorder) WriteHeader(status int)      { w.status = status }
func (w *replyRecorder) Write(p []byte) (int, error) { return w.body.Write(p) }

// batchBody is a columnar khan2023 body over the cells fields[i] at
// steps[i] — the shape the serve benchmarks post.
func batchBody(fields []string, steps []int) string {
	quoted, written := make([]string, len(fields)), make([]string, len(steps))
	for i := range fields {
		quoted[i], written[i] = strconv.Quote(fields[i]), strconv.Itoa(steps[i])
	}
	return fmt.Sprintf(`{"scheme":"khan2023","compressor":"sz3","options":{"pressio:abs":0.0001},"dims":[8,8,8],"fields":[%s],"steps":[%s]}`,
		strings.Join(quoted, ","), strings.Join(written, ","))
}

// hotBody is serve_hot's request: 4004 items drawn with repetition from
// 104 cells (13 fields × 8 steps).
func hotBody() (body string, items int) {
	const n = 4004
	rng := rand.New(rand.NewSource(7))
	fields, steps := make([]string, n), make([]int, n)
	for i := range fields {
		fields[i], steps[i] = hurricane.FieldNames[rng.Intn(len(hurricane.FieldNames))], rng.Intn(8)
	}
	return batchBody(fields, steps), n
}

// distinctBody names each of the 624 cells at these dims (13 fields ×
// 48 steps) once: a batch the distinct-cell table cannot shorten, within
// the default CacheSize of 1024.
func distinctBody() (body string, items int) {
	var fields []string
	var steps []int
	for step := 0; step < hurricane.Timesteps; step++ {
		for _, f := range hurricane.FieldNames {
			fields, steps = append(fields, f), append(steps, step)
		}
	}
	return batchBody(fields, steps), len(fields)
}

// warmBatchHandler is the in-process twin of the benchmark's serve_hot
// workload: a server, and one columnar body of items cells, posted once
// so every cell is resident. Each call of the returned function posts the
// body again through Handler() — decode, group, the cache hits, encode —
// and returns the reply, which stays valid until the next call. The
// bodies in before are posted once each, in order, ahead of all that.
func warmBatchHandler(tb testing.TB, body string, items int, before ...string) (post func() []byte) {
	tb.Helper()
	s, _ := newTestServer(tb, Config{})
	h := s.Handler()

	w := &replyRecorder{header: http.Header{}}
	rd := strings.NewReader(body)
	send := func(body string) []byte {
		rd.Reset(body)
		w.body.Reset()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", rd))
		if w.status != http.StatusOK {
			tb.Fatalf("batch: HTTP %d %s", w.status, w.body.Bytes())
		}
		return w.body.Bytes()
	}
	for _, b := range before {
		send(b)
	}
	post = func() []byte { return send(body) }
	post()
	if reply := post(); bytes.Count(reply, []byte(`"cached":true`)) != items {
		tb.Fatalf("warm pass: %d/%d items cached", bytes.Count(reply, []byte(`"cached":true`)), items)
	}
	return post
}

// BenchmarkServeBatchHandler measures an all-hit columnar batch through
// Handler(), body decode and reply encode included: hot is what serve_hot
// saturates (4004 items over 104 cells), distinct a batch with no
// repeated cell (624 items), where the distinct-cell table can only
// cost. Their allocs/op are gated in BENCH_kernels.json and hot's is
// bounded in tier-1 by TestBatchHandlerWarmAllocs.
func BenchmarkServeBatchHandler(b *testing.B) {
	for _, bc := range []struct {
		name string
		body func() (string, int)
	}{{"hot", hotBody}, {"distinct", distinctBody}} {
		b.Run(bc.name, func(b *testing.B) {
			body, items := bc.body()
			post := warmBatchHandler(b, body, items)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

// TestBatchHandlerWarmAllocs bounds a warm batch request's allocations
// by a constant: the decoder and the encoder allocate nothing per item
// (an encoding/json front end spent 2806 on this body), so what is left
// is per request — the options sub-value, the group, the pool hand-off.
func TestBatchHandlerWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the request scratch at random under the race detector")
	}
	body, items := hotBody()
	post := warmBatchHandler(t, body, items)
	if allocs := testing.AllocsPerRun(20, func() { post() }); allocs > 64 {
		t.Errorf("warm 4004-item batch through the handler: %v allocs, want at most 64", allocs)
	}
}

// TestBatchInternTableStartsOverWhenFull: a request naming more distinct
// strings than the scratch's intern table holds fills it, and the next
// decode on that scratch starts the table over — so serve_hot's body,
// arriving after it, interns its names again and stays within
// TestBatchHandlerWarmAllocs's bound instead of allocating every name.
func TestBatchInternTableStartsOverWhenFull(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the request scratch at random under the race detector")
	}
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("X%03d", i)
	}
	// two collections empty the scratch pool: the 300-name request fills
	// the table of a fresh scratch, not one that already holds the hot names
	runtime.GC()
	runtime.GC()
	body, items := hotBody()
	post := warmBatchHandler(t, body, items, batchBody(names, make([]int, len(names))))
	if allocs := testing.AllocsPerRun(20, func() { post() }); allocs > 64 {
		t.Errorf("warm 4004-item batch after a 300-name one: %v allocs, want at most 64", allocs)
	}
}

// BenchmarkServeHotLoopback is serve_hot over a real socket, in process:
// Handler() behind an HTTP server on 127.0.0.1, and two clients on two
// keep-alive connections posting the 4004-item all-hit body and reading
// each reply whole. It reports items/s. Under -cpuprofile it splits a
// request between the handler, the transport and the client — how
// ROADMAP 4(c) was sized, without the harness's 24 s runs. Not in
// BENCH_kernels.json: a loopback rate moves with whatever else the host
// runs.
func BenchmarkServeHotLoopback(b *testing.B) {
	body, items := hotBody()
	_, ts := newTestServer(b, Config{})
	loopback(b, ts, items, func([]byte) []byte { return []byte(body) }, func(reply []byte) error {
		if n := bytes.Count(reply, []byte(`"cached":true`)); n != items {
			return fmt.Errorf("warm pass: %d/%d items cached", n, items)
		}
		return nil
	})
}

// BenchmarkServeSweepLoopback is serve_sweep over a real socket, in
// process: a rahman2023/sz3 model, Handler() behind an HTTP server on
// 127.0.0.1, and two clients on two keep-alive connections posting
// 13-item batches — one 32×32×64 cell per hurricane field — each at a
// bound never asked before, and reading each reply whole. It reports
// items/s. From the third batch on, every cell is resident, its
// error-agnostic features are memoised and its slice of the forest is
// built, so under -cpuprofile a fresh-bound item splits between its one
// error-dependent metric, the bookkeeping around it and the transport.
// Not in BENCH_kernels.json: a loopback rate moves with whatever else
// the host runs.
func BenchmarkServeSweepLoopback(b *testing.B) {
	const items = 13
	_, ts := newTestServer(b, Config{Deadline: time.Minute})
	fitSchemeAndWait(b, ts.URL, "rahman2023", 1)
	quoted := make([]string, len(hurricane.FieldNames))
	for i, f := range hurricane.FieldNames {
		quoted[i] = strconv.Quote(f)
	}
	head := `{"scheme":"rahman2023","compressor":"sz3","dims":[32,32,64],"steps":[0,0,0,0,0,0,0,0,0,0,0,0,0],"fields":[` +
		strings.Join(quoted, ",") + `],"options":{"pressio:abs":`
	var bounds atomic.Int64
	body := func(buf []byte) []byte {
		bound := 1e-6 * (1 + float64(bounds.Add(1))*1e-6)
		return append(strconv.AppendFloat(append(buf[:0], head...), bound, 'g', -1, 64), "}}"...)
	}
	loopback(b, ts, items, body, func(reply []byte) error {
		if bytes.Contains(reply, []byte(`"cached":true`)) || !bytes.Contains(reply, []byte(`"errors":0`)) {
			return fmt.Errorf("a fresh bound answered %s", reply)
		}
		return nil
	})
}

// loopback times b.N posts of the bodies body writes (into the buffer it
// is handed, which it may grow) to /v1/predict/batch on ts from two
// clients, each on its keep-alive connection, after two warm-up posts,
// and reports items/s. check vets the second warm-up reply; every reply
// is read whole.
func loopback(b *testing.B, ts *httptest.Server, items int, body func([]byte) []byte, check func(reply []byte) error) {
	client := ts.Client() // the default transport keeps 2 idle connections per host
	post := func(req []byte, reply *bytes.Buffer) error {
		resp, err := client.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(req))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		reply.Reset()
		if _, err := reply.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch: HTTP %d %s", resp.StatusCode, reply.Bytes())
		}
		return nil
	}
	var req []byte
	var reply bytes.Buffer
	for pass := 0; pass < 2; pass++ {
		req = body(req)
		if err := post(req, &reply); err != nil {
			b.Fatal(err)
		}
	}
	if err := check(reply.Bytes()); err != nil {
		b.Fatal(err)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var req []byte
			var reply bytes.Buffer
			for next.Add(1) <= int64(b.N) {
				req = body(req)
				if err := post(req, &reply); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(items)/b.Elapsed().Seconds(), "items/s")
}
