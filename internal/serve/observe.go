package serve

import (
	"fmt"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/hurricane"
	"repro/internal/pressio"
)

// maxReplicates bounds the compressor runs one observe request may ask
// for: replicates average a runtime target, and a handful does.
const maxReplicates = 16

// checkObserve validates an observe body like every outside input: a
// hurricane cell on a 3-D grid within the element budget, registered
// compressor and metric names, replicates in [1, maxReplicates].
func checkObserve(req *core.ObserveRequest) error {
	if err := checkDims(req.Dims); err != nil {
		return err
	}
	if len(req.Dims) != 3 {
		return fmt.Errorf("dims must be 3-D, got %v", req.Dims)
	}
	if !slices.Contains(hurricane.FieldNames, req.Field) {
		return fmt.Errorf("unknown field %q (have %v)", req.Field, hurricane.FieldNames)
	}
	if req.Step < 0 || req.Step >= hurricane.Timesteps {
		return fmt.Errorf("step %d out of range [0, %d)", req.Step, hurricane.Timesteps)
	}
	if req.Replicates < 1 || req.Replicates > maxReplicates {
		return fmt.Errorf("replicates %d out of range [1, %d]", req.Replicates, maxReplicates)
	}
	if _, err := pressio.GetCompressor(req.Compressor); err != nil {
		return err
	}
	for _, name := range req.MetricNames {
		if _, err := pressio.GetMetric(name); err != nil {
			return err
		}
	}
	return nil
}

// handleObserve is predict-bench's remote worker: one observation cell
// per request, so retry, timeout and checkpoint key stay the driver's
// per-cell ones. The cell runs in a predict-pool slot under the request's
// context — a driver that gives up stops it at the next metric — over the
// node's dataset cache and evaluator, so the cells of a buffer the router
// sends here load it once and share its error-agnostic results. The reply
// is the observation's checkpoint record.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST only")
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.pool.retryAfter(1, 30))
		return writeError(w, http.StatusServiceUnavailable, "draining")
	}
	var req core.ObserveRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		return writeError(w, status, "%v", err)
	}
	if err := checkObserve(&req); err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	var raw []byte
	var err error
	if status := s.inSlot(r.Context(), w, func() {
		var ob *core.Observation
		if ob, err = req.Observe(r.Context(), s.data, &s.features); err == nil {
			raw, err = core.EncodeObservation(ob)
		}
	}); status != 0 {
		return status
	}
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "%v", err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
	return http.StatusOK
}
