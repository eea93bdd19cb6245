package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call into a layer, made
// and timed by the benchmark itself. Spans of one operation share Op; the
// span that caused another is its Parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Op      int    `json:"op"`
	Name    string `json:"name"`     // "<layer>.<what>", layer = package under internal/
	StartNS int64  `json:"start_ns"` // since the recorder started
	EndNS   int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: int64(now), EndNS: -1})
	return len(r.spans)
}

// end closes a span and returns its duration in ms.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = int64(now)
	return s.ms()
}

// rename gives an open span the name only its outcome decides (a cache
// acquire is a memory hit, a reload or a regeneration).
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

// timed runs f inside a span and returns its duration in ms.
func (r *recorder) timed(name string, parent, op int, f func()) float64 {
	id := r.begin(name, parent, op)
	f()
	return r.end(id)
}

// add records a span timed elsewhere (a duration a layer reported itself),
// ending now.
func (r *recorder) add(name string, parent, op int, d time.Duration) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNS: int64(now - d), EndNS: int64(now)})
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer gives, for each operation under a root span named root, the
// self time per layer in ms: a span's duration minus the part its children
// cover. The root's own self time is filed under its layer too — it is the
// glue between the calls.
func (r *recorder) selfByLayer(root string) []map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]float64, len(r.spans)+1) // Σ child durations per span id
	for i := range r.spans {
		s := &r.spans[i]
		if s.EndNS >= 0 && s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	// walk up to the root of each span once: spans are appended in start
	// order, so a parent's entry is already resolved
	inTree := make([]int, len(r.spans)+1) // span id → root span id under `root`, or 0
	perOp := map[int]map[string]float64{}
	var order []int
	for i := range r.spans {
		s := &r.spans[i]
		if s.EndNS < 0 {
			continue
		}
		switch {
		case s.Parent == 0 && s.Name == root:
			inTree[s.ID] = s.ID
			perOp[s.ID] = map[string]float64{}
			order = append(order, s.ID)
		case s.Parent != 0:
			inTree[s.ID] = inTree[s.Parent]
		}
		if top := inTree[s.ID]; top != 0 {
			perOp[top][layerOf(s.Name)] += max(s.ms()-child[s.ID], 0)
		}
	}
	out := make([]map[string]float64, len(order))
	for i, id := range order {
		out[i] = perOp[id]
	}
	return out
}

// durations lists the durations in ms of the finished spans with the given
// name that belong to a replayed operation (Op > 0); warm-up and probe spans
// carry Op 0 and are listed by durationsAll.
func (r *recorder) durations(name string) []float64 { return r.collect(name, 1) }

func (r *recorder) durationsAll(name string) []float64 { return r.collect(name, 0) }

func (r *recorder) collect(name string, minOp int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.EndNS >= 0 && s.Op >= minOp {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opSummary reconciles one operation's traced layers with what the client
// saw: the sum of the layers' self times against the observed median.
type opSummary struct {
	What       string  `json:"what"`        // what one operation is
	Samples    int     `json:"samples"`     // operations replayed under trace
	ObservedMS float64 `json:"observed_ms"` // median the load generator (or the collect run) saw per operation
	SumMS      float64 `json:"sum_ms"`      // Σ of the per-layer medians
	ResidualMS float64 `json:"residual_ms"` // observed − sum
}

// medianByLayer condenses per-operation layer maps to one median per layer.
func medianByLayer(ops []map[string]float64) map[string]float64 {
	layers := map[string]bool{}
	for _, op := range ops {
		for l := range op {
			layers[l] = true
		}
	}
	out := map[string]float64{}
	for l := range layers {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op[l]
		}
		out[l] = median(xs)
	}
	return out
}
