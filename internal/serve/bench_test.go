package serve

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/pressio"
	"repro/internal/store"
)

// BenchmarkServePredictBatch measures the steady-state batch hot path:
// one 16-item batch through predictBatchItems with every cell resident
// in the cache — the op the ≥10x batch-QPS claim rests on. The
// allocs/op figure is gated in BENCH_kernels.json: the warm path must
// stay allocation-free (pooled scratch, struct cell keys, shared
// interval slices), so a regression that reintroduces per-item garbage
// fails make bench-check.
func BenchmarkServePredictBatch(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s, err := New(st, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Recover(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer s.Drain()

	scheme, err := core.GetScheme("khan2023")
	if err != nil {
		b.Fatal(err)
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
	// dataset cache; every timed op is then all hits
	if hits, errs := s.predictBatchItems(ctx, g, req, results); errs != 0 || hits != 0 {
		b.Fatalf("warm pass: hits=%d errs=%d (want 0 hits, 0 errs): %+v", hits, errs, results[0])
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, _ := s.predictBatchItems(ctx, g, req, results)
		if hits != batch {
			b.Fatalf("iteration %d: %d/%d hits", i, hits, batch)
		}
	}
}
