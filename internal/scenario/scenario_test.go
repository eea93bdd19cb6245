package scenario

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot is the module root, relative to this package's directory.
var repoRoot = filepath.Join("..", "..")

func loadCommitted(t *testing.T, name string) *Scenario {
	t.Helper()
	sc, err := Load(filepath.Join(repoRoot, "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func loadSmoke(t *testing.T) *Scenario { return loadCommitted(t, "smoke") }
func loadBatch(t *testing.T) *Scenario { return loadCommitted(t, "batch") }

func TestCommittedScenariosLoad(t *testing.T) {
	for _, name := range []string{"smoke", "full", "batch"} {
		loadCommitted(t, name)
	}
}

// TestLoadRejectsDeletedBlocks pins the strict decode: a scenario file
// still carrying one of the blocks the harness no longer reads fails to
// load with an error naming it, instead of keeping a knob nothing gates.
func TestLoadRejectsDeletedBlocks(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "scenarios", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	for field, block := range map[string]map[string]any{
		"capacity": {"effective_nodes": 1, "overhead_us": 2000, "error_band": 0.25},
		"gate":     {"qps_tolerance": 0.1, "latency_tolerance": 1.0},
		"speedup":  {"vs": "other", "min_qps_ratio": 10, "max_p99_ratio": 1},
	} {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		doc[field] = block
		stale, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), field+".json")
		if err := os.WriteFile(path, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("a scenario with a %s block loaded", field)
		} else if !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("%s block: error does not name the field: %v", field, err)
		}
	}
}

// TestScenario is the seeded correctness-under-load check (`make
// scenario-check` runs it under -race): each committed CI scenario is
// deployed as real -race-built predictd processes behind a real router,
// the seeded mix is replayed open-loop, and the run must meet its SLOs
// and account for every prediction. `-short` skips (it builds a binary
// and runs ~10s of wall-clock load per scenario).
func TestScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness")
	}
	ctx := context.Background()
	bin, err := BuildPredictd(ctx, repoRoot, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"smoke", "batch"} {
		t.Run(name, func(t *testing.T) {
			sc := loadCommitted(t, name)
			m, err := Run(ctx, sc, RunConfig{
				Bin:       bin,
				WorkDir:   t.TempDir(),
				CorpusDir: filepath.Join(t.TempDir(), "corpus"),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("measured: %s", m)
			if m.Requests == 0 {
				t.Fatal("no steady-window requests completed")
			}
			for _, v := range CheckSLO(m, sc.SLO) {
				t.Errorf("SLO: %s", v)
			}
			// the one exact property a seeded run offers: a node puts every
			// prediction it answers in exactly one /statz bucket, so once
			// nothing failed the buckets sum to what the driver saw answered
			if m.Failed != 0 {
				t.Fatalf("%d operations failed; the prediction accounting needs a clean run", m.Failed)
			}
			if got := m.CacheHits + m.CacheMisses; got != uint64(m.Answered) {
				t.Errorf("/statz accounts for %d predictions (cache_hits %d + cache_misses %d), the driver saw %d answered 2xx",
					got, m.CacheHits, m.CacheMisses, m.Answered)
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := map[string]func(*Scenario){
		"no name":             func(s *Scenario) { s.Name = "" },
		"single node":         func(s *Scenario) { s.Topology.Nodes = 1 },
		"unknown field":       func(s *Scenario) { s.Corpus.Fields = []string{"BOGUS"} },
		"zero steps":          func(s *Scenario) { s.Corpus.Steps = 0 },
		"bad dims":            func(s *Scenario) { s.Corpus.Dims = []int{8, 8} },
		"mix not 100":         func(s *Scenario) { s.Traffic.PredictPct = 50 },
		"zero qps":            func(s *Scenario) { s.Traffic.TargetQPS = 0 },
		"zero steady":         func(s *Scenario) { s.Traffic.SteadyS = 0 },
		"fit without bounds":  func(s *Scenario) { s.Traffic.Bounds = nil },
		"inval without keys":  func(s *Scenario) { s.Traffic.InvalidateKeys = nil },
		"zero p99 slo":        func(s *Scenario) { s.SLO.MaxP99MS = 0 },
		"batch without sizes": func(s *Scenario) { s.Traffic.BatchPct = 50 },
		"batch pct over 100":  func(s *Scenario) { s.Traffic.BatchPct = 101; s.Traffic.BatchSizes = []int{4} },
		"oversized batch":     func(s *Scenario) { s.Traffic.BatchPct = 50; s.Traffic.BatchSizes = []int{4097} },
	}
	for name, mutate := range mutations {
		sc := loadSmoke(t)
		mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	sc := loadSmoke(t)
	a := Schedule(sc.Traffic, sc.Corpus.Cells())
	b := Schedule(sc.Traffic, sc.Corpus.Cells())
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("two schedules of the same traffic differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScheduleShape(t *testing.T) {
	sc := loadSmoke(t)
	ops := Schedule(sc.Traffic, sc.Corpus.Cells())
	total := sc.Traffic.WarmupS + sc.Traffic.SteadyS
	expected := sc.Traffic.TargetQPS * total
	if n := float64(len(ops)); n < expected*0.7 || n > expected*1.3 {
		t.Errorf("%d ops for ~%.0f expected arrivals", len(ops), expected)
	}
	kinds := map[OpKind]int{}
	steady := 0
	for i, op := range ops {
		kinds[op.Kind]++
		if op.Steady {
			steady++
		}
		if op.Cell < 0 || op.Cell >= sc.Corpus.Cells() {
			t.Fatalf("op %d cell %d out of corpus range", i, op.Cell)
		}
		if i > 0 && op.At < ops[i-1].At {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	if kinds[OpPredict] == 0 || steady == 0 {
		t.Errorf("degenerate schedule: kinds=%v steady=%d", kinds, steady)
	}
	// the mix percentages should roughly hold
	if frac := float64(kinds[OpPredict]) / float64(len(ops)); frac < 0.75 {
		t.Errorf("predict fraction %.2f for a 90%% mix", frac)
	}
}

func healthyMetrics() *Metrics {
	return &Metrics{
		Requests:    72,
		AchievedQPS: 12,
		P50MS:       20,
		P90MS:       45,
		P99MS:       80,
		MaxRSSBytes: 200 << 20,
	}
}

func TestCheckSLO(t *testing.T) {
	sc := loadSmoke(t)
	if v := CheckSLO(healthyMetrics(), sc.SLO); len(v) != 0 {
		t.Errorf("healthy run violates SLO: %v", v)
	}
	bad := healthyMetrics()
	bad.P99MS = sc.SLO.MaxP99MS + 1
	bad.ErrorRate = sc.SLO.MaxErrorRate + 0.1
	bad.MaxRSSBytes = sc.SLO.MaxRSSBytes + 1
	v := CheckSLO(bad, sc.SLO)
	if len(v) != 3 {
		t.Fatalf("expected 3 violations, got %v", v)
	}
	for i, want := range []string{"error rate", "max RSS", "p99"} {
		if !strings.HasPrefix(v[i], want) {
			t.Errorf("violation %d = %q, want it to name %q", i, v[i], want)
		}
	}
}

// TestScheduleBatchMix pins the batch draw's shape and determinism: a
// 100% batch_pct mix batches every predict with a size from the declared
// distribution, and two schedules of the same traffic are identical
// including the batch draws.
func TestScheduleBatchMix(t *testing.T) {
	sc := loadBatch(t)
	a := Schedule(sc.Traffic, sc.Corpus.Cells())
	b := Schedule(sc.Traffic, sc.Corpus.Cells())
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules: %d vs %d ops", len(a), len(b))
	}
	sizes := map[int]bool{}
	for _, n := range sc.Traffic.BatchSizes {
		sizes[n] = true
	}
	preds := 0
	for i, op := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across identical schedules: %+v vs %+v", i, a[i], b[i])
		}
		if op.Kind == OpPredict && !sizes[op.Batch] {
			t.Fatalf("op %d: predict with batch %d outside the declared distribution", i, op.Batch)
		}
		preds += op.Predictions()
	}
	// a fully-batched mix must amortize: many predictions per arrival
	if preds < len(a)*sc.Traffic.BatchSizes[0] {
		t.Errorf("%d predictions over %d ops — batching not applied", preds, len(a))
	}
	// and the single-mix smoke schedule must stay batch-free
	for _, op := range Schedule(loadSmoke(t).Traffic, 8) {
		if op.Batch != 0 {
			t.Fatalf("smoke schedule drew a batch op: %+v", op)
		}
	}
}
