package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/hurricane"
)

var sliceDims = []int{8, 8, 8}

// fitSchemeAndWait trains scheme/sz3 on two cells at bounds scaled by k
// and waits for the job.
func fitSchemeAndWait(t testing.TB, base, scheme string, k float64) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/fit", FitRequest{
		Scheme: scheme, Compressor: "sz3",
		Training: TrainingSpec{
			Fields: []string{"P", "CLOUD"}, Steps: 1, Dims: sliceDims,
			Bounds: []float64{k * 1e-5, k * 1e-4, k * 1e-3},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit %s: status %d body %s", scheme, resp.StatusCode, body)
	}
	var fr FitResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var job JobView
		getJSON(t, base+"/v1/jobs/"+fr.JobID, &job)
		if job.Status == "done" {
			return
		}
		if job.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("fit job %s: %s %s", fr.JobID, job.Status, job.Error)
		}
	}
}

// sliceSweep asks for every hurricane field's step-0 cell at one bound
// through the batch endpoint, and holds each answer bit-equal to the
// group predictor over the same buffer's features (predictFeatureRow,
// the path that never slices). None may be cached.
func sliceSweep(t *testing.T, s *Server, base, scheme string, opts map[string]any, alpha float64) {
	t.Helper()
	fields := hurricane.FieldNames
	resp, raw := postJSON(t, base+"/v1/predict/batch", BatchRequest{
		Scheme: scheme, Compressor: "sz3", Dims: sliceDims, Options: opts, Alpha: alpha,
		Fields: fields, Steps: make([]int, len(fields)),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch %v: status %d: %s", opts, resp.StatusCode, raw)
	}
	var got BatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Errors != 0 {
		t.Fatalf("batch %v: %s", opts, raw)
	}
	sliceSweepWant(t, s, scheme, opts, alpha, got)
}

// sliceSweepWant holds a sweep's answers, item i for field i, to the
// group predictor's walk over the buffers' features.
func sliceSweepWant(t *testing.T, s *Server, scheme string, opts map[string]any, alpha float64, got BatchResponse) {
	t.Helper()
	fields := hurricane.FieldNames
	g, _, err := s.resolveGroup(scheme, "sz3", opts, alpha, sliceDims)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.groupPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, field := range fields {
		h, err := s.data.Acquire(field, 0, sliceDims)
		if err != nil {
			t.Fatal(err)
		}
		features, err := plan.Evaluate(context.Background(), h.Data())
		h.Release()
		if err != nil {
			t.Fatal(err)
		}
		var want BatchItemResult
		s.predictFeatureRow(g, features, &want)
		r := got.Results[i]
		if r.Cached || math.Float64bits(r.Prediction) != math.Float64bits(want.Prediction) {
			t.Errorf("%s at %v: cached=%v %v (%#x), the predictor says %v (%#x)", field, opts, r.Cached,
				r.Prediction, math.Float64bits(r.Prediction), want.Prediction, math.Float64bits(want.Prediction))
		}
	}
}

// memoOf is the slice memo on a field's step-0 buffer, or nil.
func memoOf(t *testing.T, s *Server, field string) *sliceMemo {
	t.Helper()
	h, err := s.data.Acquire(field, 0, sliceDims)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	m, _ := h.Data().Derived(sliceKey{}).(*sliceMemo)
	return m
}

// wantMemos holds every field's memo to the model the registry serves
// and to having a table (built) or not, and returns them by field.
func wantMemos(t *testing.T, s *Server, scheme string, built bool) map[string]*sliceMemo {
	t.Helper()
	entry, err := s.registry.Lookup(scheme, "sz3")
	if err != nil {
		t.Fatal(err)
	}
	memos := map[string]*sliceMemo{}
	for _, field := range hurricane.FieldNames {
		m := memoOf(t, s, field)
		if m == nil || m.entry != entry || (m.slice != nil) != built {
			t.Fatalf("%s: memo %+v, want one for model %s with a table: %v", field, m, entry.Key, built)
		}
		memos[field] = m
	}
	return memos
}

func absAt(k int) map[string]any { return map[string]any{"pressio:abs": 1e-4 * (1 + float64(k)/7)} }

// TestSweepSliceIsPredict: rahman2023's forest read as a step function
// of distortion:general answers 13 cells × 20 fresh bounds bit-equal to
// a walk of the forest; the first fresh bound leaves a memo with no
// table, the second builds it.
func TestSweepSliceIsPredict(t *testing.T) {
	s, ts := newTestServer(t, Config{Deadline: time.Minute})
	fitSchemeAndWait(t, ts.URL, "rahman2023", 1)
	for k := range 20 {
		sliceSweep(t, s, ts.URL, "rahman2023", absAt(k), 0)
		wantMemos(t, s, "rahman2023", k > 0)
	}
}

// TestSliceMemoRebuilt: a memo serves only the model and the fixed
// features it was built for. A newer model, or an entropy:bins that
// changes entropy:shannon, replaces it with one that has no table yet,
// and the next fresh bound builds that.
func TestSliceMemoRebuilt(t *testing.T) {
	s, ts := newTestServer(t, Config{Deadline: time.Minute})
	fitSchemeAndWait(t, ts.URL, "rahman2023", 1)
	for k := range 2 {
		sliceSweep(t, s, ts.URL, "rahman2023", absAt(k), 0)
	}
	first := wantMemos(t, s, "rahman2023", true)["P"]

	fitSchemeAndWait(t, ts.URL, "rahman2023", 2) // a newer model
	sliceSweep(t, s, ts.URL, "rahman2023", absAt(2), 0)
	if m := wantMemos(t, s, "rahman2023", false)["P"]; m.entry == first.entry {
		t.Fatal("the refit served the old model")
	}
	sliceSweep(t, s, ts.URL, "rahman2023", absAt(3), 0)
	before := wantMemos(t, s, "rahman2023", true)

	// a field whose entropy:shannon moves with the bins loses its table;
	// one that is constant at this grid (QGRAUP) keeps it
	bins := func(k int) map[string]any {
		o := absAt(k)
		o["entropy:bins"] = 64.0 // as JSON decodes it
		return o
	}
	const shannon = 6 // rahman2023's entropy:shannon; 7 is distortion:general
	sliceSweep(t, s, ts.URL, "rahman2023", bins(4), 0)
	moved := 0
	for _, field := range hurricane.FieldNames {
		m, was := memoOf(t, s, field), before[field]
		for i := range shannon { // the features before it, all fixed
			if math.Float64bits(m.features[i]) != math.Float64bits(was.features[i]) {
				t.Fatalf("%s: entropy:bins moved feature %d", field, i)
			}
		}
		if math.Float64bits(m.features[shannon]) == math.Float64bits(was.features[shannon]) {
			if m != was {
				t.Errorf("%s: the memo was replaced though no fixed feature moved", field)
			}
			continue
		}
		moved++
		if m.entry != was.entry || m.slice != nil {
			t.Errorf("%s: entropy:shannon moved, yet the memo %+v kept a table", field, m)
		}
	}
	if moved == 0 {
		t.Fatal("entropy:bins moved no field's entropy:shannon")
	}
	for k := 5; k < 8; k++ {
		sliceSweep(t, s, ts.URL, "rahman2023", bins(k), 0)
		wantMemos(t, s, "rahman2023", true)
	}
}

// TestNoSliceForIntervalsOrOtherModels: a group asking for an interval
// never slices, nor does a scheme whose model is not a forest — though
// ganguli2023 and krasowska2021 have one error-dependent feature each.
func TestNoSliceForIntervalsOrOtherModels(t *testing.T) {
	s, ts := newTestServer(t, Config{Deadline: time.Minute})
	fitSchemeAndWait(t, ts.URL, "rahman2023", 1)
	for k := range 4 {
		sliceSweep(t, s, ts.URL, "rahman2023", absAt(k), 0.1)
		for _, field := range hurricane.FieldNames {
			if m := memoOf(t, s, field); m != nil {
				t.Fatalf("%s: an interval sweep left a slice memo", field)
			}
		}
	}
	for _, scheme := range []string{"ganguli2023", "krasowska2021"} {
		fitSchemeAndWait(t, ts.URL, scheme, 1)
		for k := range 4 {
			sliceSweep(t, s, ts.URL, scheme, absAt(k), 0)
			for _, field := range hurricane.FieldNames {
				if m := memoOf(t, s, field); m != nil && m.slice != nil {
					t.Fatalf("%s: %s built a slice", scheme, field)
				}
			}
		}
	}
}

// TestSliceMemoConcurrentSweeps: sweeps at different bounds over the
// same buffers at once share, build and replace their slice memos
// without a race (run under -race), and each answer is the predictor's.
func TestSliceMemoConcurrentSweeps(t *testing.T) {
	s, ts := newTestServer(t, Config{Deadline: time.Minute})
	fitSchemeAndWait(t, ts.URL, "rahman2023", 1)
	const workers, rounds = 4, 6
	fields := hurricane.FieldNames
	got := make([][]BatchResponse, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				body, err := json.Marshal(BatchRequest{
					Scheme: "rahman2023", Compressor: "sz3", Dims: sliceDims, Options: absAt(w*rounds + r),
					Fields: fields, Steps: make([]int, len(fields)),
				})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var br BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil || br.Errors != 0 {
					t.Errorf("batch: %v %+v", err, br)
					return
				}
				got[w] = append(got[w], br)
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for r, br := range got[w] {
			sliceSweepWant(t, s, "rahman2023", absAt(w*rounds+r), 0, br)
		}
	}
}
