package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// The self-test runs every workload at toy size (8×8×8 cells, half-second windows)
// against a real predictd built by the same prepare() the benchmark uses.
var testEnv *environment

func TestMain(m *testing.M) {
	env, err := prepare(context.Background(), "..")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark self-test:", err)
		os.Exit(1)
	}
	testEnv = env
	code := m.Run()
	env.close()
	os.Exit(code)
}

func toyRun() *runCtx {
	return &runCtx{env: testEnv, seed: 1, window: 500 * time.Millisecond, size: toySize}
}

// Every workload, traced and untraced, must emit every metric its mode
// declares, each with its unit, and find nothing wrong with the answers.
func TestWorkloadsEmitEveryDeclaredMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				run, defs := w.run, endToEnd
				if traced {
					run, defs = w.trace, perLayer
				}
				o, err := run(context.Background(), toyRun())
				if err != nil {
					t.Fatal(err)
				}
				rr := o.report(w.name, traced, 1, 1)
				if !rr.Result.Correct || rr.Result.Failed != 0 {
					t.Errorf("failed %d of %d: %v", rr.Result.Failed, rr.Result.Attempted, rr.Failures)
				}
				if len(rr.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(rr.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rr.Result.Metrics[d.name]
					if !ok || m.Unit != d.unit || m.Unit == "" {
						t.Errorf("%s: emitted=%v unit=%q, declared unit %q", d.name, ok, m.Unit, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, m.Value)
					}
				}
				if traced {
					if rr.Op == nil || rr.Op.Samples == 0 || len(rr.Layers) == 0 {
						t.Errorf("traced run has no per-layer cost table: %+v", rr.Op)
					}
					if _, ok := o.values["trace.overhead_share"]; !ok {
						t.Error("trace.overhead_share not measured")
					}
				}
			})
		}
	}
}

// Negative control: with one expected prediction tampered, the same window
// must report failed operations.
func TestTamperedExpectationFailsTheCheck(t *testing.T) {
	rc := toyRun()
	o := newOutcome()
	m, err := serveHot.prepare(context.Background(), rc, serveHot.inputs(rc.seed, rc.size), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.d.close()
	for c := range m.expect {
		m.expect[c] *= 1 + 1e-6
	}
	if err := serveHot.window(context.Background(), rc, m, o, 0, 200*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.report("serve_hot", false, 1, 1).Result.Correct {
		t.Fatalf("tampered expectations went unnoticed: %d failed of %d", o.failed, o.attempted)
	}
}

// The open loop must time a request from the instant it was due: against a
// server that stalls 200 ms, the requests due during the stall wait behind
// it, and that wait has to show in their latency and in the lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock() // every request queues behind the stalled one
		if first {
			first = false
			time.Sleep(200 * time.Millisecond)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	var due []time.Duration
	var reqs []*request
	for i := 0; i < 30; i++ {
		due = append(due, time.Duration(i)*5*time.Millisecond)
		reqs = append(reqs, &request{url: srv.URL, check: func(int, http.Header, []byte) (int, error) { return 1, nil }})
	}
	samples := openLoop(context.Background(), newClient(), due, reqs)
	// the request due at 100 ms cannot be answered before the stall ends at
	// 200 ms: ≥ 100 ms from its due time, a few ms from when it was sent
	s := samples[20]
	if s.err != nil || s.lat < 90*time.Millisecond {
		t.Errorf("request due at %v: latency %v (err %v), want ≥ 90ms counted from its due time", s.at, s.lat, s.err)
	}
	if s.late < 50*time.Millisecond {
		t.Errorf("request due at %v was sent %v late; the stall must show as lateness", s.at, s.late)
	}
	o := newOutcome()
	st := summarize(o, samples, 150*time.Millisecond, 50*time.Millisecond)
	if st.lateP95 < 50 {
		t.Errorf("harness.late_p95_ms = %v, want the stall reported", st.lateP95)
	}
	if o.attempted != 30 || o.failed != 0 {
		t.Errorf("attempted %d failed %d, want 30 and 0", o.attempted, o.failed)
	}
}

// BENCHMARK.json must declare exactly what the harness emits.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var gated []*workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(decl.Workloads) != len(gated) {
		t.Fatalf("%d workloads declared, %d are gated", len(decl.Workloads), len(gated))
	}
	for i, w := range gated {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, harness has %q (or the why differs)", i, decl.Workloads[i].Name, w.name)
		}
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds declared %d, harness default %d", decl.RunSeconds, runSeconds)
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: declared %+v, catalogue %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound declared %v, catalogue %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, d.name)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ok_per_s", better: "higher", bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, tight(1), tight(1.05), "same"},
		{lower, tight(1), tight(1.3), "worse"},
		{lower, tight(1), tight(0.7), "better"},
		{higher, tight(100), tight(70), "worse"},
		{higher, tight(100), tight(130), "better"},
		{lower, noisy(1), noisy(1.15), "unresolved"},
		{lower, noisy(1), tight(0.5), "better"},             // every run of B beats every run of A
		{lower, []float64{1}, []float64{1.5}, "unresolved"}, // one run a side shows no spread
		{lower, []float64{1}, []float64{1.05}, "same"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: A %v B %v: verdict %q, want %q", tc.def.name, tc.a, tc.b, got, tc.want)
		}
	}
}
