package bench

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/hurricane"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/store"
)

// tinySpec keeps tests fast: few fields, few steps, small grid.
func tinySpec(t *testing.T) *Spec {
	t.Helper()
	return &Spec{
		Fields:      []string{"P", "CLOUD", "U", "QRAIN", "TC", "W"},
		Steps:       3,
		Dims:        []int{4, 12, 12},
		Compressors: []string{"sz3", "zfp"},
		Bounds:      []float64{1e-4, 1e-2},
		Schemes:     []string{"khan2023", "jin2022", "rahman2023"},
		Folds:       3,
		Workers:     4,
		Seed:        7,
	}
}

func TestCollectProducesAllCells(t *testing.T) {
	spec := tinySpec(t)
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Fields) * spec.Steps * len(spec.Bounds) * len(spec.Compressors)
	if len(obs) != want {
		t.Fatalf("observations = %d, want %d", len(obs), want)
	}
	for _, ob := range obs {
		if ob.CR < 1 {
			t.Errorf("%s/%s: CR = %v < 1", ob.Compressor, ob.Field, ob.CR)
		}
		if len(ob.Features) == 0 {
			t.Errorf("%s/%s: no features", ob.Compressor, ob.Field)
		}
		if ob.Compressor == "sz3" {
			if _, ok := ob.Features["jin_model:cr"]; !ok {
				t.Errorf("sz3 cell missing jin_model feature")
			}
		} else if _, ok := ob.Features["jin_model:cr"]; ok {
			t.Errorf("zfp cell should not compute jin_model")
		}
	}
}

// referenceObserve is the cell loop as bench ran it before observe went
// through core.FeaturePlan and the cell cache: the buffer synthesized per
// cell, every metric plugin instantiated, configured and run right here.
// It stays as the reference the planned path must reproduce bit for bit.
func referenceObserve(spec *Spec, field string, step int, bound float64, compressor string, metricNames []string) (*Observation, error) {
	data, err := hurricane.Field(field, step, spec.Dims)
	if err != nil {
		return nil, err
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, bound)
	opts.Set(predictors.OptTaoCompressor, compressor)
	opts.Set(predictors.OptKhanCompressor, compressor)
	ob := &Observation{
		Field: field, Step: step, Bound: bound, Compressor: compressor,
		Features: map[string]float64{},
		MetricMS: map[string]float64{},
	}
	for _, name := range metricNames {
		m, err := pressio.GetMetric(name)
		if err != nil {
			return nil, err
		}
		if err := m.SetOptions(opts); err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		start := time.Now()
		m.BeginCompress(data)
		ob.MetricMS[name] = time.Since(start).Seconds() * 1e3
		for k, v := range m.Results() {
			switch t := v.(type) {
			case float64:
				ob.Features[k] = t
			case int64:
				ob.Features[k] = float64(t)
			}
		}
	}
	var cms, dms float64
	for r := 0; r < spec.Replicates; r++ {
		cr, c, d, err := core.ObserveTarget(compressor, data, opts)
		if err != nil {
			return nil, err
		}
		ob.CR = cr
		cms += c
		dms += d
	}
	ob.CompressMS = cms / float64(spec.Replicates)
	ob.DecompressMS = dms / float64(spec.Replicates)
	ob.ByteSize = data.ByteSize()
	ob.Replicates = spec.Replicates
	return ob, nil
}

// TestCollectLeavesNoMapping: a collection's cell cache holds its cells
// as mappings, which no collector frees; each run closes its cache, so
// twenty of them leave no region mapped.
func TestCollectLeavesNoMapping(t *testing.T) {
	base := dataset.LiveMappings()
	for run := 0; run < 20; run++ {
		spec := tinySpec(t)
		spec.Fields, spec.Steps, spec.Compressors = []string{"P", "TC"}, 2, []string{"sz3"}
		spec.Bounds, spec.Schemes = []float64{1e-3}, []string{"khan2023"}
		res, err := CollectDetailed(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Data.Misses != 4 {
			t.Fatalf("run %d: want each of 4 buffers loaded once, got %+v", run, res.Data)
		}
		if live := dataset.LiveMappings() - base; live != 0 {
			t.Fatalf("run %d left %d regions mapped", run, live)
		}
	}
}

// TestCollectRefusesBadDims: a grid no field can be synthesized on fails
// its cells with the generator's error (an overflowing one used to panic
// a queue worker, an empty one to reach the compressors).
func TestCollectRefusesBadDims(t *testing.T) {
	for _, dims := range [][]int{{0, 4, 4}, {-1, 4, 4}, {1 << 30, 1 << 30, 1 << 30}} {
		spec := tinySpec(t)
		spec.Fields, spec.Steps, spec.Dims = []string{"P"}, 1, dims
		obs, err := Collect(context.Background(), spec)
		if err == nil {
			t.Errorf("dims %v: %d observations and no error", dims, len(obs))
		} else if dims[0] >= 0 && !strings.Contains(err.Error(), "hurricane: dims") {
			t.Errorf("dims %v: %v; want the generator's refusal", dims, err)
		}
	}
}

// TestCollectMatchesReferenceLoop: the planned, cached collection gives
// the numbers of the reference loop exactly, and says what it reused —
// each buffer loaded once, each error-agnostic metric run once per buffer.
func TestCollectMatchesReferenceLoop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			spec := tinySpec(t)
			spec.Fields = []string{"P", "CLOUD", "U"}
			spec.Steps = 2
			spec.Workers = workers
			var summary atomic.Value
			spec.Progress = func(line string) {
				if strings.HasPrefix(line, "queue:") {
					summary.Store(line)
				}
			}
			res, err := CollectDetailed(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			buffers := len(spec.Fields) * spec.Steps
			cells := buffers * len(spec.Bounds) * len(spec.Compressors)
			if len(res.Observations) != cells {
				t.Fatalf("observations = %d, want %d", len(res.Observations), cells)
			}

			// the reference, in Collect's cell order; agnostic counts the
			// error-agnostic metric lookups a cell of each compressor makes
			var ref []*Observation
			agnostic := map[string]int{}
			agnosticNames := map[string]bool{}
			for _, compressor := range spec.Compressors {
				names, err := featureMetricsFor(spec.Schemes, compressor)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					m, err := pressio.GetMetric(name)
					if err != nil {
						t.Fatal(err)
					}
					if core.StageOf(m) == core.StageErrorAgnostic {
						agnostic[compressor]++
						agnosticNames[name] = true
					}
				}
				for _, bound := range spec.Bounds {
					for _, field := range spec.Fields {
						for step := 0; step < spec.Steps; step++ {
							ob, err := referenceObserve(spec, field, step, bound, compressor, names)
							if err != nil {
								t.Fatal(err)
							}
							ref = append(ref, ob)
						}
					}
				}
			}
			for i, want := range ref {
				got := res.Observations[i]
				if got.Field != want.Field || got.Step != want.Step || got.Bound != want.Bound || got.Compressor != want.Compressor {
					t.Fatalf("cell %d is %s/%d/%g/%s, reference %s/%d/%g/%s", i, got.Field, got.Step, got.Bound, got.Compressor,
						want.Field, want.Step, want.Bound, want.Compressor)
				}
				if got.CR != want.CR || got.ByteSize != want.ByteSize {
					t.Errorf("cell %d: CR %v size %d, reference %v size %d", i, got.CR, got.ByteSize, want.CR, want.ByteSize)
				}
				if len(got.Features) != len(want.Features) {
					t.Errorf("cell %d: %d features, reference %d", i, len(got.Features), len(want.Features))
				}
				for k, w := range want.Features {
					if g, ok := got.Features[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("cell %d feature %s = %v, reference %v", i, k, g, w)
					}
				}
			}

			// what was reused. Every union here has the same error-agnostic
			// metrics with the same options, so a buffer's results serve all
			// its cells whatever their compressor.
			perCell := agnostic[spec.Compressors[0]]
			if perCell == 0 || perCell != agnostic[spec.Compressors[1]] {
				t.Fatalf("error-agnostic metrics per cell %v: the spec no longer exercises the memo", agnostic)
			}
			wantMisses := uint64(buffers * perCell)
			if res.Data.Misses != uint64(buffers) || res.Data.MemHits != uint64(cells-buffers) {
				t.Errorf("data: %d loads and %d hits, want %d and %d", res.Data.Misses, res.Data.MemHits, buffers, cells-buffers)
			}
			if res.MemoHits+res.MemoMisses != uint64(cells*perCell) || res.MemoHits == 0 {
				t.Errorf("memo: %d hits + %d misses, want %d lookups and some hits", res.MemoHits, res.MemoMisses, cells*perCell)
			}
			// one worker sees a buffer's cells back to back. Several may
			// start two cells of an unseen buffer together, and both compute
			// (FeaturePlan says so): never fewer runs than buffers need.
			if res.MemoMisses < wantMisses || (workers == 1 && res.MemoMisses != wantMisses) {
				t.Errorf("memo: %d metric runs for %d buffers x %d error-agnostic metrics", res.MemoMisses, buffers, perCell)
			}
			wantLine := fmt.Sprintf("data: %d loads, %d hits; features: %d memo hits, %d computed",
				buffers, cells-buffers, res.MemoHits, res.MemoMisses)
			if line, _ := summary.Load().(string); !strings.HasSuffix(line, wantLine) {
				t.Errorf("queue summary %q does not end in %q", line, wantLine)
			}
			// a cell that found a result on its buffer has no timing for it.
			// Counted per metric, not per cell: two workers starting cells
			// of one unseen buffer together may both run stat and only one
			// of them entropy.
			timed := 0
			for _, ob := range res.Observations {
				for name := range ob.MetricMS {
					if agnosticNames[name] {
						timed++
					}
				}
			}
			if timed != int(res.MemoMisses) {
				t.Errorf("%d error-agnostic timings recorded, %d computed", timed, res.MemoMisses)
			}

			// same observations, same table
			got, err := Evaluate(spec, res.Observations)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Evaluate(spec, ref)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want.Rows {
				g := got.Rows[i]
				if g.HasMedAPE != w.HasMedAPE || math.Float64bits(g.MedAPE) != math.Float64bits(w.MedAPE) {
					t.Errorf("%s/%s: MedAPE %v (has %v), reference %v (has %v)", w.Compressor, w.Scheme, g.MedAPE, g.HasMedAPE, w.MedAPE, w.HasMedAPE)
				}
				if g.HasErrAgn != w.HasErrAgn || g.HasErrDep != w.HasErrDep {
					t.Errorf("%s/%s: stage columns present %v/%v, reference %v/%v", w.Compressor, w.Scheme, g.HasErrAgn, g.HasErrDep, w.HasErrAgn, w.HasErrDep)
				}
				if w.HasErrAgn && g.ErrAgn.N >= w.ErrAgn.N {
					t.Errorf("%s/%s: ErrAgn sampled on %d cells, reference on all %d: memo hits must not be samples", w.Compressor, w.Scheme, g.ErrAgn.N, w.ErrAgn.N)
				}
			}
		})
	}
}

func TestRunProducesTable2Shape(t *testing.T) {
	spec := tinySpec(t)
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Baselines) != 2 {
		t.Fatalf("baselines = %d", len(report.Baselines))
	}
	if len(report.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 schemes × 2 compressors)", len(report.Rows))
	}
	rows := map[string]MethodRow{}
	for _, r := range report.Rows {
		rows[r.Compressor+"/"+r.Scheme] = r
	}
	// jin on zfp must be the all-N/A row like the paper
	jz := rows["zfp/jin2022"]
	if jz.Supported || jz.HasMedAPE {
		t.Errorf("zfp/jin2022 should be unsupported: %+v", jz)
	}
	// jin on sz3: error-dependent present, no training/fit
	js := rows["sz3/jin2022"]
	if !js.Supported || !js.HasErrDep || js.HasFit || js.HasTraining {
		t.Errorf("sz3/jin2022 row malformed: %+v", js)
	}
	// khan: error-dependent, no error-agnostic
	ks := rows["sz3/khan2023"]
	if !ks.HasErrDep || ks.HasErrAgn || !ks.HasMedAPE {
		t.Errorf("sz3/khan2023 row malformed: %+v", ks)
	}
	// rahman: error-agnostic + training + fit + inference + MedAPE
	rs := rows["sz3/rahman2023"]
	if !rs.HasErrAgn || !rs.HasTraining || !rs.HasFit || !rs.HasInfer || !rs.HasMedAPE {
		t.Errorf("sz3/rahman2023 row malformed: %+v", rs)
	}
	// khan's error-dependent time must be well below compression time
	var sz3Base BaselineRow
	for _, b := range report.Baselines {
		if b.Compressor == "sz3" {
			sz3Base = b
		}
	}
	if ks.ErrDep.Mean >= sz3Base.Compress.Mean {
		t.Errorf("khan error-dependent %.3fms should be below sz3 compress %.3fms",
			ks.ErrDep.Mean, sz3Base.Compress.Mean)
	}
	// rendering smoke test
	text := report.Table2()
	for _, needle := range []string{"MedAPE", "sz3 Khan [7]", "zfp Rahman [13]", "N/A"} {
		if !strings.Contains(text, needle) {
			t.Errorf("Table2 output missing %q:\n%s", needle, text)
		}
	}
}

func TestCheckpointRestartSkipsWork(t *testing.T) {
	spec := tinySpec(t)
	spec.Fields = []string{"P", "CLOUD"}
	spec.Steps = 2
	spec.StoreDir = t.TempDir()
	var ran atomic.Int64 // Progress is called from concurrent workers
	spec.Progress = func(line string) {
		if !strings.HasPrefix(line, "queue:") {
			ran.Add(1) // count computed cells, not the run summary
		}
	}
	if _, err := Collect(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if ran.Load() == 0 {
		t.Fatal("nothing ran")
	}
	// second run over the same store: everything checkpointed
	ran.Store(0)
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("restart recomputed %d cells, want 0", n)
	}
	want := len(spec.Fields) * spec.Steps * len(spec.Bounds) * len(spec.Compressors)
	if len(obs) != want {
		t.Errorf("restored %d observations, want %d", len(obs), want)
	}
}

// restoreCells must return what decoding each record as a stream of its
// own returns — for this build's records (read by the shared decoder, from
// where the value starts) and for a record whose type definitions differ
// (a build whose Observation had other fields) — and leave out one that
// does not decode.
func TestRestoreCellsMatchesPerRecordDecode(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := map[string]*Observation{}
	for i := 0; i < 5; i++ {
		ob := &Observation{
			Field: "P", Step: i, Bound: 1e-4, Compressor: "sz3", CR: 3.5 + float64(i),
			Features: map[string]float64{"a": float64(i), "b": -1}, MetricMS: map[string]float64{"m": 0.25},
			ByteSize: 4096, Replicates: 1,
		}
		if i == 3 {
			ob.Features, ob.MetricMS = nil, nil // a record with fields left out
		}
		raw, err := encodeObservation(ob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, obsTypeDefs) || len(obsTypeDefs) == 0 || len(obsTypeDefs) >= len(obsZero) {
			t.Fatalf("record %d does not open with the %d bytes of type definitions", i, len(obsTypeDefs))
		}
		key := fmt.Sprintf("cell/%d", i)
		want[key] = ob
		if err := st.Put(key, raw); err != nil {
			t.Fatal(err)
		}
	}
	// another build's Observation: fewer fields, so other definitions
	type oldObservation struct {
		Field, Compressor string
		CR                float64
		Features          map[string]float64
	}
	var foreign bytes.Buffer
	if err := gob.NewEncoder(&foreign).Encode(oldObservation{"U", "zfp", 9, map[string]float64{"a": 2}}); err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(foreign.Bytes(), obsTypeDefs) {
		t.Fatal("the foreign record opens with this build's definitions: the case is not exercised")
	}
	want["cell/foreign"] = &Observation{Field: "U", Compressor: "zfp", CR: 9, Features: map[string]float64{"a": 2}}
	st.Put("cell/foreign", foreign.Bytes())
	st.Put("cell/torn", append(append([]byte{}, obsTypeDefs...), 0xff, 0x01))
	st.Put("fail/cell/0", []byte("not a cell"))

	got, size, err := restoreCells(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d cells, want %d", len(got), len(want))
	}
	total := 0
	for _, k := range []string{"cell/0", "cell/1", "cell/2", "cell/3", "cell/4", "cell/foreign", "cell/torn"} {
		raw, _, _ := st.Get(k)
		total += len(raw)
		if k == "cell/torn" {
			continue
		}
		var ref Observation
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&ref); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%#v", *got[k]) != fmt.Sprintf("%#v", ref) || fmt.Sprintf("%#v", ref) != fmt.Sprintf("%#v", *want[k]) {
			t.Errorf("%s: restored %#v, a decoder of its own %#v, stored %#v", k, *got[k], ref, *want[k])
		}
	}
	if size != total {
		t.Errorf("size %d, want the records' %d bytes", size, total)
	}
	// the point of the shared decoder: the definitions are compiled once
	raw, _, _ := st.Get("cell/0")
	each := testing.AllocsPerRun(20, func() { gob.NewDecoder(bytes.NewReader(raw)).Decode(new(Observation)) })
	all := testing.AllocsPerRun(20, func() { restoreCells(st) })
	if all > 4*each {
		t.Errorf("restoring 7 records allocates %.0f times, one decoder per record %.0f each: the decoder is not shared", all, each)
	}
}

func TestCollectSurvivesInjectedFaults(t *testing.T) {
	spec := tinySpec(t)
	spec.Fields = []string{"P", "W"}
	spec.Steps = 2
	spec.FaultPlan = faultinject.New(uint64(spec.Seed), faultinject.Rule{
		Op: faultinject.OpTask, Kind: faultinject.KindError, Worker: -1, Rate: 0.2,
	})
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatalf("fault injection should be absorbed by retries: %v", err)
	}
	want := 2 * 2 * len(spec.Bounds) * len(spec.Compressors)
	if len(obs) != want {
		t.Errorf("observations = %d, want %d", len(obs), want)
	}
}

func TestTable1Rendering(t *testing.T) {
	text := Table1()
	for _, needle := range []string{
		"Tao [15]", "Krasowska [9]", "Underwood [17]", "Ganguli [2]",
		"Jin [5, 6]", "Khan [7]", "Rahman [13]", "Lu [11]", "Qin [12]", "Wang [20]",
		"counterfactuals", "bounded", "trial-based", "deep learning",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("Table1 missing %q", needle)
		}
	}
	if lines := strings.Count(text, "\n"); lines < 11 {
		t.Errorf("Table1 has %d lines, want ≥ 11 (header + 10 methods)", lines)
	}
}

func TestEvaluateTrainedSchemesAcrossFolds(t *testing.T) {
	spec := tinySpec(t)
	spec.Schemes = []string{"rahman2023", "krasowska2021"}
	spec.Compressors = []string{"sz3"}
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Evaluate(spec, obs)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range report.Rows {
		if !row.HasMedAPE {
			t.Errorf("%s: no MedAPE", row.Scheme)
			continue
		}
		if row.MedAPE < 0 || row.MedAPE > 10000 {
			t.Errorf("%s: MedAPE %.2f implausible", row.Scheme, row.MedAPE)
		}
		if row.Fit.Mean <= 0 {
			t.Errorf("%s: fit time not measured", row.Scheme)
		}
	}
}

func TestInSampleBeatsOutOfSample(t *testing.T) {
	// future-work #1: in-sample CV is the best case; it should not be
	// substantially worse than out-of-sample on the same observations
	spec := tinySpec(t)
	spec.Schemes = []string{"rahman2023"}
	spec.Compressors = []string{"sz3"}
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	outReport, err := Evaluate(spec, obs)
	if err != nil {
		t.Fatal(err)
	}
	inSpec := *spec
	inSpec.InSample = true
	inReport, err := Evaluate(&inSpec, obs)
	if err != nil {
		t.Fatal(err)
	}
	outAPE := outReport.Rows[0].MedAPE
	inAPE := inReport.Rows[0].MedAPE
	t.Logf("out-of-sample MedAPE %.2f, in-sample %.2f", outAPE, inAPE)
	if inAPE > outAPE*1.5+5 {
		t.Errorf("in-sample (%.2f) should not be much worse than out-of-sample (%.2f)", inAPE, outAPE)
	}
}

func TestBandwidthTarget(t *testing.T) {
	// future-work #4: predict compression throughput instead of CR
	spec := tinySpec(t)
	spec.Schemes = []string{"rahman2023", "khan2023"}
	spec.Compressors = []string{"zfp"}
	spec.Target = TargetBandwidth
	spec.Replicates = 2
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]MethodRow{}
	for _, r := range report.Rows {
		rows[r.Scheme] = r
	}
	// khan computes a CR, not a bandwidth: must be N/A under this target
	if rows["khan2023"].Supported {
		t.Error("calculation scheme should be N/A for bandwidth target")
	}
	r := rows["rahman2023"]
	if !r.Supported || !r.HasMedAPE {
		t.Fatalf("rahman bandwidth row incomplete: %+v", r)
	}
	if r.MedAPE < 0 || r.MedAPE > 1000 {
		t.Errorf("bandwidth MedAPE %.1f implausible", r.MedAPE)
	}
}

func TestObservationBandwidth(t *testing.T) {
	ob := &Observation{ByteSize: 2 << 20, CompressMS: 100}
	if got := ob.BandwidthMBps(); got != 20 {
		t.Errorf("BandwidthMBps = %v, want 20 (2 MiB in 0.1 s)", got)
	}
	if (&Observation{}).BandwidthMBps() != 0 {
		t.Error("zero-time observation should report 0 bandwidth")
	}
	if ob.TargetValue(TargetBandwidth) != 20 {
		t.Error("TargetValue(bandwidth) wrong")
	}
	ob.CR = 3
	if ob.TargetValue(TargetCR) != 3 {
		t.Error("TargetValue(cr) wrong")
	}
}

func TestReplicatesAffectCellKey(t *testing.T) {
	a := tinySpec(t)
	b := tinySpec(t)
	a.defaults()
	b.Replicates = 3
	b.defaults()
	ka := cellKey(a, "P", 0, 1e-4, "sz3")
	kb := cellKey(b, "P", 0, 1e-4, "sz3")
	if ka == kb {
		t.Error("replicate count must be part of the checkpoint key")
	}
}

func TestReportCSV(t *testing.T) {
	spec := tinySpec(t)
	spec.Fields = []string{"P", "U", "CLOUD", "W"}
	spec.Steps = 2
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	out := report.CSV()
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%s", err, out)
	}
	// header + 2 baselines + 6 scheme rows
	if len(records) != 1+2+6 {
		t.Errorf("rows = %d, want 9", len(records))
	}
	if records[0][0] != "compressor" || records[0][len(records[0])-1] != "medape_pct" {
		t.Errorf("header wrong: %v", records[0])
	}
	for _, rec := range records[1:] {
		if len(rec) != len(records[0]) {
			t.Errorf("ragged row: %v", rec)
		}
	}
}

func TestScatter(t *testing.T) {
	spec := tinySpec(t)
	spec.Fields = []string{"P", "U", "CLOUD", "W"}
	spec.Steps = 2
	spec.Compressors = []string{"sz3"}
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"khan2023", "rahman2023"} {
		out, err := Scatter(spec, scheme, "sz3", obs)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
		if err != nil {
			t.Fatalf("%s: CSV: %v", scheme, err)
		}
		want := 1 + len(spec.Fields)*spec.Steps*len(spec.Bounds)
		if len(records) != want {
			t.Errorf("%s: rows = %d, want %d", scheme, len(records), want)
		}
	}
	// a missing feature is an error, as in Evaluate, not a silent 0
	broken := *obs[0]
	broken.Features = map[string]float64{}
	if _, err := Scatter(spec, "khan2023", "sz3", append([]*Observation{&broken}, obs[1:]...)); err == nil || !strings.Contains(err.Error(), "missing feature") {
		t.Errorf("observation without features: err = %v, want a missing-feature error", err)
	}
	if _, err := Scatter(spec, "jin2022", "zfp", obs); err == nil {
		t.Error("unsupported pair should error")
	}
	if _, err := Scatter(spec, "khan2023", "lossless", obs); err == nil {
		t.Error("compressor without observations should error")
	}
}

func TestStoreInfo(t *testing.T) {
	spec := tinySpec(t)
	spec.Fields = []string{"P", "U"}
	spec.Steps = 2
	spec.StoreDir = t.TempDir()
	if _, err := Collect(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	out, err := StoreInfo(spec.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cells: 16") { // 2 fields × 2 steps × 2 bounds × 2 compressors
		t.Errorf("StoreInfo output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "sz3 abs=") || !strings.Contains(out, "zfp abs=") {
		t.Errorf("StoreInfo missing per-config groups:\n%s", out)
	}
}
