package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/pressio"
	"repro/internal/store"
)

// fitEntry trains a tiny krasowska2021 model and wraps it as a registry
// entry.
func fitEntry(t *testing.T, trainOpts pressio.Options, training TrainingSpec) *ModelEntry {
	t.Helper()
	return fitEntryOn(t, []float64{2, 3, 4, 9, 8, 7}, trainOpts, training)
}

// fitEntryOn is fitEntry with the training targets chosen by the caller,
// so two entries under one key can hold different models.
func fitEntryOn(t *testing.T, y []float64, trainOpts pressio.Options, training TrainingSpec) *ModelEntry {
	t.Helper()
	scheme, err := core.GetScheme("krasowska2021")
	if err != nil {
		t.Fatal(err)
	}
	p, err := scheme.NewPredictor("sz3")
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {2, 0, 1}, {1, 2, 0}}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	state, err := predictors.MarshalState(p)
	if err != nil {
		t.Fatal(err)
	}
	return &ModelEntry{
		Key:           ModelKey("krasowska2021", "sz3", trainOpts, training),
		Scheme:        "krasowska2021",
		Compressor:    "sz3",
		PredictorName: p.Name(),
		Target:        scheme.Target(),
		Features:      scheme.Features(),
		Samples:       len(x),
		State:         state,
	}
}

func openTestRegistry(t *testing.T, dir string) (*store.Store, *Registry) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(st)
	if err != nil {
		t.Fatal(err)
	}
	return st, reg
}

func TestRegistryPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, reg := openTestRegistry(t, dir)
	training := TrainingSpec{Fields: []string{"P"}, Steps: 2, Dims: []int{4, 4}, Bounds: []float64{1e-4}}
	entry := fitEntry(t, pressio.Options{}, training)
	if err := reg.Put(entry); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, reg2 := openTestRegistry(t, dir)
	defer st2.Close()
	if reg2.Len() != 1 {
		t.Fatalf("reopened registry has %d entries, want 1", reg2.Len())
	}
	got, err := reg2.Lookup("krasowska2021", "sz3")
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != entry.Key || got.Samples != 6 || got.PredictorName != "linear_regression" {
		t.Fatalf("reopened entry mismatch: %+v", got)
	}
	p, err := reg2.Restore(got)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict([]float64{1, 2, 3}); err != nil {
		t.Fatalf("restored predictor should predict: %v", err)
	}
}

func TestRegistryLookupServesNewest(t *testing.T) {
	st, reg := openTestRegistry(t, t.TempDir())
	defer st.Close()
	t1 := TrainingSpec{Fields: []string{"P"}, Steps: 2, Bounds: []float64{1e-4}}
	t2 := TrainingSpec{Fields: []string{"P", "CLOUD"}, Steps: 4, Bounds: []float64{1e-4}}
	e1 := fitEntry(t, pressio.Options{}, t1)
	e2 := fitEntry(t, pressio.Options{}, t2)
	if e1.Key == e2.Key {
		t.Fatal("different training sets must produce different model keys")
	}
	if err := reg.Put(e1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(e2); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Lookup("krasowska2021", "sz3")
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != e2.Key {
		t.Errorf("Lookup served %s, want the newest %s", got.Key, e2.Key)
	}
	if _, err := reg.Lookup("krasowska2021", "zfp"); !errors.Is(err, ErrNoModel) {
		t.Errorf("unknown compressor: want ErrNoModel, got %v", err)
	}
	if len(reg.List()) != 2 {
		t.Errorf("List returned %d entries, want 2", len(reg.List()))
	}
}

func TestRegistryInvalidateEvictsStaleSchemes(t *testing.T) {
	st, reg := openTestRegistry(t, t.TempDir())
	defer st.Close()
	training := TrainingSpec{Fields: []string{"P"}, Steps: 2, Bounds: []float64{1e-4}}
	entry := fitEntry(t, pressio.Options{}, training)
	if err := reg.Put(entry); err != nil {
		t.Fatal(err)
	}

	// an unrelated option change leaves the model alone
	evicted, err := reg.Invalidate("sz3:quant_bins_unrelated")
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("unrelated invalidation evicted %v", evicted)
	}

	// an error-dependent declaration evicts krasowska (quantized entropy
	// is bound-dependent) — from memory AND the durable store
	evicted, err = reg.Invalidate(pressio.InvalidateErrorDependent)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != entry.Key {
		t.Fatalf("evicted %v, want [%s]", evicted, entry.Key)
	}
	if _, err := reg.Lookup("krasowska2021", "sz3"); !errors.Is(err, ErrNoModel) {
		t.Errorf("want ErrNoModel after eviction, got %v", err)
	}
	if _, ok, _ := st.Get(entry.Key); ok {
		t.Error("evicted entry must be deleted from the store, not just memory")
	}
}

func TestRegistryInvalidateTrainingEvictsAllTrained(t *testing.T) {
	st, reg := openTestRegistry(t, t.TempDir())
	defer st.Close()
	training := TrainingSpec{Fields: []string{"P"}, Steps: 2, Bounds: []float64{1e-4}}
	if err := reg.Put(fitEntry(t, pressio.Options{}, training)); err != nil {
		t.Fatal(err)
	}
	evicted, err := reg.Invalidate(pressio.InvalidateTraining)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Errorf("predictors:training should evict every trained model, got %v", evicted)
	}
}

// TestPredictorMemoDiesWithItsEntry: a decoded predictor is kept only
// for the entry it was decoded from, while that entry is the one
// published. A decode that finishes after its entry was replaced is not
// stored, so it cannot answer for the new entry; and everything that
// replaces or removes an entry leaves no decoded predictor behind.
func TestPredictorMemoDiesWithItsEntry(t *testing.T) {
	st, reg := openTestRegistry(t, t.TempDir())
	defer st.Close()
	training := TrainingSpec{Fields: []string{"P"}, Steps: 2, Bounds: []float64{1e-4}}
	older := fitEntry(t, pressio.Options{}, training)
	newer := fitEntryOn(t, []float64{20, 30, 40, 90, 80, 70}, pressio.Options{}, training)
	key := older.Key
	if newer.Key != key {
		t.Fatal("both models must share one key")
	}
	var newerRaw bytes.Buffer
	if err := gob.NewEncoder(&newerRaw).Encode(newer); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	predict := func(e *ModelEntry) float64 {
		t.Helper()
		p, err := reg.Predictor(e)
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	published := func() *ModelEntry {
		t.Helper()
		e, ok := reg.Get(key)
		if !ok {
			t.Fatalf("no entry under %s", key)
		}
		return e
	}
	decoded := func() bool {
		reg.mu.RLock()
		defer reg.mu.RUnlock()
		r := reg.mem[key]
		return r != nil && r.pred != nil
	}

	// the late store: e1 is looked up, replaced, and only then decoded
	if err := reg.Put(older); err != nil {
		t.Fatal(err)
	}
	e1 := published()
	if err := reg.Absorb(key, newerRaw.Bytes()); err != nil {
		t.Fatal(err)
	}
	fromOlder := predict(e1)
	if decoded() {
		t.Error("a predictor decoded from a replaced entry was stored under its key")
	}
	fresh, err := reg.Restore(published())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if want == fromOlder {
		t.Fatal("the two models must disagree for this test to see anything")
	}
	if got := predict(published()); got != want {
		t.Errorf("the new entry predicts %v, its own model says %v (the replaced one %v)", got, want, fromOlder)
	}
	if !decoded() {
		t.Error("the published entry's predictor was not kept")
	}
	if p1, _ := reg.Predictor(published()); p1 == nil {
		t.Error("no predictor for the published entry")
	} else if p2, _ := reg.Predictor(published()); p1 != p2 {
		t.Error("the published entry was decoded twice")
	}

	// re-put, invalidate, replicated delete: each takes the decode with it
	if err := reg.Put(older); err != nil {
		t.Fatal(err)
	}
	if decoded() {
		t.Error("a re-put kept the replaced entry's predictor")
	}
	if got := predict(published()); got != fromOlder {
		t.Errorf("after the re-put: %v, want the re-put model's %v", got, fromOlder)
	}
	if _, err := reg.Invalidate(pressio.InvalidateTraining); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(key); ok || decoded() {
		t.Error("an invalidated entry or its predictor is still reachable")
	}
	if err := reg.Absorb(key, newerRaw.Bytes()); err != nil {
		t.Fatal(err)
	}
	predict(published())
	reg.Forget(key)
	if _, ok := reg.Get(key); ok || decoded() {
		t.Error("a forgotten entry or its predictor is still reachable")
	}
}
