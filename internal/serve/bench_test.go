package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/hurricane"
	"repro/internal/pressio"
	"repro/internal/store"
)

// warmBatch16 builds a server and a 16-item khan2023 batch and runs the
// batch once, so every cell is resident in the cache: each call of the
// returned function is then one all-hit predictBatchItems pass, the op
// BenchmarkServePredictBatch times and
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
	const batch = 16
	req := &BatchRequest{Scheme: "khan2023", Compressor: "sz3", Dims: dims}
	fields := []string{"P", "TC", "QVAPOR", "W"}
	for i := 0; i < batch; i++ {
		req.Fields = append(req.Fields, fields[i%len(fields)])
		req.Steps = append(req.Steps, i/len(fields))
	}
	results := make([]BatchItemResult, batch)
	ctx := context.Background()

	// warm pass: misses populate the cache through the tiered
	// dataset cache; every later pass is then all hits
	if hits, errs := s.predictBatchItems(ctx, g, req, results); errs != 0 || hits != 0 {
		tb.Fatalf("warm pass: hits=%d errs=%d (want 0 hits, 0 errs): %+v", hits, errs, results[0])
	}
	return func() int {
		hits, _ := s.predictBatchItems(ctx, g, req, results)
		return hits
	}
}

// BenchmarkServePredictBatch measures the steady-state batch hot path:
// one 16-item batch through predictBatchItems with every cell resident
// in the cache. Its ns/op is gated in BENCH_kernels.json; that the path
// allocates nothing is machine-independent and pinned in tier-1 by
// TestPredictBatchWarmPathAllocatesNothing.
func BenchmarkServePredictBatch(b *testing.B) {
	hitPass := warmBatch16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := hitPass(); hits != 16 {
			b.Fatalf("iteration %d: %d/16 hits", i, hits)
		}
	}
}

// TestPredictBatchWarmPathAllocatesNothing pins DESIGN §15's invariant
// where every change runs it: an all-hit batch (pooled scratch, struct
// cell keys, shared interval slices) performs zero allocations, so a
// regression that reintroduces per-item garbage fails tier-1 on any
// machine, not only an opt-in benchmark gate.
func TestPredictBatchWarmPathAllocatesNothing(t *testing.T) {
	hitPass := warmBatch16(t)
	if allocs := testing.AllocsPerRun(100, func() {
		if hits := hitPass(); hits != 16 {
			t.Fatalf("%d/16 hits on the warm path", hits)
		}
	}); allocs != 0 {
		t.Errorf("warm 16-item batch: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkServePredictCold is the in-process twin of the benchmark's
// serve_cold workload: khan2023/sz3 single predicts through the handler,
// each over one of 13 cells of 64x64x96 (1.5 MiB; one per hurricane
// field) picked at random, at a bound never asked before, against an
// 8 MiB memory tier with a spill dir — five cells fit, so three requests
// in five reload their cell from its spill file. One client per
// GOMAXPROCS. It reports the share of requests that reloaded (spill-hit)
// and the share of those reloads that were hashed (digest-checked); use
// it with -cpuprofile/-memprofile to see what a cold predict pays. Not
// in BENCH_kernels.json: ns/op rows drift by tens of percent on a shared
// host.
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

// warmBatchHandler is the in-process twin of the benchmark's serve_hot
// workload: a server, and one 4004-item columnar khan2023 body drawn with
// repetition from 104 cells (13 fields × 8 steps), posted once so every
// cell is resident. Each call of the returned function posts the body
// again through Handler() — decode, group, 4004 cache hits, encode — and
// returns the reply, which stays valid until the next call.
func warmBatchHandler(tb testing.TB) (post func() []byte) {
	tb.Helper()
	s, _ := newTestServer(tb, Config{})
	h := s.Handler()

	const items = 4004
	rng := rand.New(rand.NewSource(7))
	fields, steps := make([]string, items), make([]string, items)
	for i := range fields {
		fields[i] = strconv.Quote(hurricane.FieldNames[rng.Intn(len(hurricane.FieldNames))])
		steps[i] = strconv.Itoa(rng.Intn(8))
	}
	body := fmt.Sprintf(`{"scheme":"khan2023","compressor":"sz3","options":{"pressio:abs":0.0001},"dims":[8,8,8],"fields":[%s],"steps":[%s]}`,
		strings.Join(fields, ","), strings.Join(steps, ","))

	w := &replyRecorder{header: http.Header{}}
	rd := strings.NewReader(body)
	post = func() []byte {
		rd.Reset(body)
		w.body.Reset()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", rd))
		if w.status != http.StatusOK {
			tb.Fatalf("batch: HTTP %d %s", w.status, w.body.Bytes())
		}
		return w.body.Bytes()
	}
	post()
	if reply := post(); bytes.Count(reply, []byte(`"cached":true`)) != items {
		tb.Fatalf("warm pass: %d/%d items cached", bytes.Count(reply, []byte(`"cached":true`)), items)
	}
	return post
}

// BenchmarkServeBatchHandler measures what serve_hot saturates: one
// 4004-item all-hit columnar batch through Handler(), body decode and
// reply encode included. Its allocs/op is gated in BENCH_kernels.json and
// bounded in tier-1 by TestBatchHandlerWarmAllocs.
func BenchmarkServeBatchHandler(b *testing.B) {
	post := warmBatchHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
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
	post := warmBatchHandler(t)
	if allocs := testing.AllocsPerRun(20, func() { post() }); allocs > 64 {
		t.Errorf("warm 4004-item batch through the handler: %v allocs, want at most 64", allocs)
	}
}
