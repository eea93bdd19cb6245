package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/hurricane"
)

// sweepDims is serve_sweep's cell: 32×32×64 float32, 256 KiB.
var sweepDims = []int{32, 32, 64}

// sweepPass builds a server with a rahman2023/sz3 model and returns a
// function that serves one fresh-bound batch naming each hurricane
// field's cells at steps 0 to steps-1, through resolveGroup and
// predictBatchItems as runBatch calls them. Two warm-up passes leave
// every cell resident, its error-agnostic features memoised and its
// slice of the forest built, so a pass is what an autotuner's sweep
// step costs from then on.
func sweepPass(t *testing.T, steps int) (pass func()) {
	t.Helper()
	s, ts := newTestServer(t, Config{Deadline: time.Minute})
	fitSchemeAndWait(t, ts.URL, "rahman2023", 1)

	fields := hurricane.FieldNames
	sc := &batchScratch{req: BatchRequest{Scheme: "rahman2023", Compressor: "sz3", Dims: sweepDims}}
	for step := range steps {
		for _, f := range fields {
			sc.req.Fields = append(sc.req.Fields, f)
			sc.req.Steps = append(sc.req.Steps, step)
		}
	}
	sc.internFields()
	n := len(sc.req.Fields)
	sc.results = make([]BatchItemResult, n)
	// one options map per pass, made before any is counted: a bound the
	// server has not seen each time, as runBatch's decoder hands it over
	const passes = 64
	opts := make([]map[string]any, passes)
	for i := range opts {
		opts[i] = map[string]any{"pressio:abs": 1e-6 * (1 + float64(i)/passes)}
	}
	next := 0
	pass = func() {
		if next == passes {
			t.Fatal("sweepPass: out of fresh bounds")
		}
		o := opts[next]
		next++
		g, status, err := s.resolveGroup(sc.req.Scheme, sc.req.Compressor, o, 0, sc.req.Dims)
		if err != nil {
			t.Fatalf("resolveGroup: %d %v", status, err)
		}
		clear(sc.results)
		if hits, errs := s.predictBatchItems(context.Background(), g, sc); errs != 0 || hits != 0 {
			t.Fatalf("sweep: %d hits, %d errors over %d items: %+v", hits, errs, n, sc.results[0])
		}
	}
	pass()
	pass()
	return pass
}

// TestSweepBatchAllocs pins what a fresh-bound miss costs the heap once
// a bound sweep is under way: a 13-item rahman2023 batch over resident
// cells allocates at most 45 objects in resolveGroup and
// predictBatchItems together (the group, its plan, the predictor handle
// and, per item, the fragment the cache keeps), and a batch of 26
// distinct cells at most 13 more: one cached fragment per added item.
func TestSweepBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const cells = 13
	one := sweepPass(t, 1)
	a13 := testing.AllocsPerRun(20, one)
	if a13 > 45 {
		t.Errorf("fresh-bound %d-item sweep batch: %v allocs, want at most 45", cells, a13)
	}
	two := sweepPass(t, 2)
	a26 := testing.AllocsPerRun(20, two)
	if a26-a13 > cells {
		t.Errorf("fresh-bound %d-item sweep batch: %v allocs, %v more than %d items; want at most %d more",
			2*cells, a26, a26-a13, cells, cells)
	}
	t.Logf("allocs: %v for %d items, %v for %d", a13, cells, a26, 2*cells)
}
