package core

import (
	"context"
	"testing"

	"repro/internal/hurricane"
	_ "repro/internal/metrics"
	"repro/internal/pressio"
)

// TestEvaluateDetailedSizesTheUnion: a detailed evaluation allocates its
// union of results once, at the size of every metric's results, on a
// plan's first evaluation (a Table-2 cell plans once per cell) as on its
// later ones. Grown key by key as each metric merged in, the union cost
// 19 allocations a call here in both cases.
func TestEvaluateDetailedSizesTheUnion(t *testing.T) {
	const grown = 19
	ctx := context.Background()
	var ev Evaluator
	set := MetricUnion{"stat", "entropy", "quantized_entropy", "variogram", "svd_trunc", "spatial", "distortion"}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-3)
	data := hurricane.Generate("P", 0, []int{16, 32, 32})
	plan := func() *FeaturePlan {
		p, err := ev.Plan(set, "sz3", opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	evaluate := func(p *FeaturePlan) {
		d, err := p.EvaluateDetailed(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Results) == 0 {
			t.Fatal("empty union of results")
		}
	}
	warm := plan()
	evaluate(warm) // the error-agnostic metrics' results are on the buffer
	again := testing.AllocsPerRun(200, func() { evaluate(warm) })
	planning := testing.AllocsPerRun(200, func() { plan() })
	first := testing.AllocsPerRun(200, func() { evaluate(plan()) }) - planning
	t.Logf("EvaluateDetailed on a warm cell: %v allocs/op on a plan's first evaluation, %v on a later one (%v grown)", first, again, grown)
	if first >= grown || again >= grown {
		t.Errorf("EvaluateDetailed allocates %v/op first, %v/op later: want fewer than the %v of a grown union", first, again, grown)
	}
}
