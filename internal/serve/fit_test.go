package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/predictors"
	"repro/internal/pressio"
)

// TestFitPlansOncePerBound: a fit plans once per bound and observes every
// field and step through that plan, and the model it publishes is the one
// a plan per cell trains — /v1/models lists the same state_sha256.
func TestFitPlansOncePerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("fits models")
	}
	for _, name := range []string{"krasowska2021", "underwood2023"} {
		s, ts := newTestServer(t, Config{Deadline: time.Minute})
		req := tinyFit()
		req.Scheme = name
		req.Training.Fields = []string{"P", "QVAPOR"}
		req.Training.Bounds = []float64{1e-4, 1e-3, 1e-2}
		resp, body := postJSON(t, ts.URL+"/v1/fit", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: fit: %d %s", name, resp.StatusCode, body)
		}
		var fr FitResponse
		json.Unmarshal(body, &fr)
		if job := waitJob(t, ts.URL, fr.JobID); job.Status != "done" {
			t.Fatalf("%s: fit failed: %s", name, job.Error)
		}
		var models []modelView
		getJSON(t, ts.URL+"/v1/models", &models)
		if len(models) != 1 {
			t.Fatalf("%s: models = %+v, want one", name, models)
		}
		if want := fitPerCell(t, s, &req); models[0].StateSHA != want {
			t.Errorf("%s: published state_sha256 %s, a plan per cell trains %s", name, models[0].StateSHA, want)
		}
	}
}

// fitPerCell trains req's model with a fresh plan for every cell and
// returns the digest of its state.
func fitPerCell(t *testing.T, s *Server, req *FitRequest) string {
	t.Helper()
	ctx := context.Background()
	scheme, err := core.GetScheme(req.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	var ev core.Evaluator
	var x [][]float64
	var y []float64
	tr := req.Training
	for _, field := range tr.Fields {
		for step := 0; step < tr.Steps; step++ {
			for _, bound := range tr.Bounds {
				opts := pressio.Options{}
				opts.Set(pressio.OptAbs, bound)
				plan, err := ev.Plan(scheme, req.Compressor, opts)
				if err != nil {
					t.Fatal(err)
				}
				ob, err := core.ObserveCell(ctx, s.data, plan, core.Cell{Field: field, Step: step, Dims: tr.Dims, Replicates: 1})
				if err != nil {
					t.Fatal(err)
				}
				v, err := ob.Vector(scheme.Features())
				if err != nil {
					t.Fatal(err)
				}
				x, y = append(x, v), append(y, ob.CR)
			}
		}
	}
	p, err := scheme.NewPredictor(req.Compressor)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	state, err := predictors.MarshalState(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(state)
	return hex.EncodeToString(sum[:])
}
