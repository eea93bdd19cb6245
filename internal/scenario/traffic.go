package scenario

import (
	"math/rand"
	"time"
)

// OpKind is one traffic operation type.
type OpKind int

const (
	OpPredict OpKind = iota
	OpFit
	OpInvalidate
)

func (k OpKind) String() string {
	switch k {
	case OpPredict:
		return "predict"
	case OpFit:
		return "fit"
	case OpInvalidate:
		return "invalidate"
	}
	return "unknown"
}

// Op is one scheduled request: an arrival offset from the run start, the
// operation kind, and the deterministic inputs that shape its body.
type Op struct {
	// At is the arrival offset from the start of the run.
	At time.Duration
	// Kind selects the endpoint.
	Kind OpKind
	// Cell indexes the corpus predict target ((field, step) pair).
	Cell int
	// Seq is a per-kind counter: distinct fit sequences produce distinct
	// training specs (distinct opthash, no dedup collapse).
	Seq int
	// Batch, when positive, issues this predict as one
	// /v1/predict/batch request of Batch cells starting at Cell
	// (wrapping around the corpus). Zero is a single /v1/predict.
	Batch int
	// Steady marks ops in the measured window (past warmup).
	Steady bool
}

// Predictions is how many predictions the op carries: Batch for a
// batched predict, 1 for a single predict, 0 otherwise.
func (o Op) Predictions() int {
	if o.Kind != OpPredict {
		return 0
	}
	if o.Batch > 0 {
		return o.Batch
	}
	return 1
}

// Schedule expands the traffic declaration into the full seeded arrival
// plan: Poisson arrivals at TargetQPS over warmup+steady, each op's kind
// drawn from the mix and its predict cell drawn uniformly from the
// corpus. Everything comes from one seeded source, so the same scenario
// offers the identical byte-level request sequence on every run, which is
// what lets a run be checked exactly (every answered prediction accounted
// for) instead of statistically.
func Schedule(t Traffic, cells int) []Op {
	rng := rand.New(rand.NewSource(t.Seed))
	total := time.Duration((t.WarmupS + t.SteadyS) * float64(time.Second))
	warmup := time.Duration(t.WarmupS * float64(time.Second))
	meanGap := float64(time.Second) / t.TargetQPS

	var ops []Op
	seq := map[OpKind]int{}
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() * meanGap)
		if at >= total {
			break
		}
		kind := OpPredict
		switch p := rng.Float64() * 100; {
		case p < t.PredictPct:
			kind = OpPredict
		case p < t.PredictPct+t.FitPct:
			kind = OpFit
		default:
			kind = OpInvalidate
		}
		cell := 0
		if cells > 0 {
			cell = rng.Intn(cells)
		}
		// a predict arrival may be a batched one: same Poisson slot, one
		// request, BatchSizes-many predictions (both draws are seeded, so
		// the batch mix replays byte-identically too)
		batch := 0
		if kind == OpPredict && t.BatchPct > 0 && len(t.BatchSizes) > 0 &&
			rng.Float64()*100 < t.BatchPct {
			batch = t.BatchSizes[rng.Intn(len(t.BatchSizes))]
		}
		ops = append(ops, Op{
			At:     at,
			Kind:   kind,
			Cell:   cell,
			Seq:    seq[kind],
			Batch:  batch,
			Steady: at >= warmup,
		})
		seq[kind]++
	}
	return ops
}
