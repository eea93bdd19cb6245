package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"
)

// coalescer generalizes singleflight from "identical request dedup" to
// "same-model window batching": concurrent single predicts that miss the
// caches and share a cell-key base (scheme, compressor, options, model,
// alpha, dims) enroll into one window; when the window closes, one
// worker-pool task computes every distinct enrolled cell in a single
// batched feature-extraction pass and fans the results back out. Two
// requests for the same cell in one window compute once; two requests
// for different cells of the same model share the group resolution, the
// predictor and the feature plan, and every item finds on its resident
// buffer whatever error-agnostic results earlier requests left there.
type coalescer struct {
	s       *Server
	mu      sync.Mutex
	windows map[string]*coalesceWindow
}

// coalesceWindow is one open window: the group shared by its enrollees
// and the requests waiting on the flush.
type coalesceWindow struct {
	g    *batchGroup
	reqs []coalesceReq
}

type coalesceReq struct {
	field string
	step  int
	ch    chan coalesceReply
}

// coalesceReply is what the flush hands back to one enrollee. shared
// marks a request whose cell another enrollee in the same window already
// computed — the "coalesced hit" bucket in /statz accounting.
type coalesceReply struct {
	out    BatchItemResult
	err    error
	shared bool
}

func newCoalescer(s *Server) *coalescer {
	return &coalescer{s: s, windows: map[string]*coalesceWindow{}}
}

// enroll joins (opening if needed) the window for g's base. The first
// enrollee schedules the flush one CoalesceWindow later — through the
// injectable timer when a test drives the clock.
func (c *coalescer) enroll(g *batchGroup, field string, step int) <-chan coalesceReply {
	ch := make(chan coalesceReply, 1)
	c.mu.Lock()
	w, ok := c.windows[g.base]
	if !ok {
		w = &coalesceWindow{g: g}
		c.windows[g.base] = w
		base := g.base
		if t := c.s.cfg.testCoalesceTimer; t != nil {
			t(c.s.cfg.CoalesceWindow, func() { c.flush(base) })
		} else {
			time.AfterFunc(c.s.cfg.CoalesceWindow, func() { c.flush(base) })
		}
	}
	w.reqs = append(w.reqs, coalesceReq{field: field, step: step, ch: ch})
	c.mu.Unlock()
	return ch
}

// pending reports how many requests the base's open window holds — lets
// tests release a held flush only after every concurrent request has
// enrolled (the coalescing analogue of flightGroup.waiting).
func (c *coalescer) pending(base string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.windows[base]; ok {
		return len(w.reqs)
	}
	return 0
}

// flush closes the window and computes it in one worker-pool slot. Pool
// saturation rejects the whole window — every enrollee sees 429, the
// same shed a burst of single requests would have produced one by one.
func (c *coalescer) flush(base string) {
	c.mu.Lock()
	w := c.windows[base]
	delete(c.windows, base)
	c.mu.Unlock()
	if w == nil {
		return
	}
	submitted := c.s.pool.trySubmit(func() {
		if c.s.cfg.testHookBatchFlush != nil {
			c.s.cfg.testHookBatchFlush()
		}
		// the flush outlives any one enrollee's request context by
		// design, exactly like a singleflight leader
		//lint:ignore pressiovet/ctxflow window flush serves all enrollees, not one request; bounded by cfg.Deadline instead
		ctx, cancel := context.WithTimeout(context.Background(), c.s.cfg.Deadline)
		defer cancel()
		type cellID struct {
			field string
			step  int
		}
		seen := map[cellID]coalesceReply{}
		for _, r := range w.reqs {
			id := cellID{field: r.field, step: r.step}
			if prev, ok := seen[id]; ok {
				prev.shared = true
				r.ch <- prev
				continue
			}
			var reply coalesceReply
			c.s.predictCell(ctx, w.g, r.field, r.step, &reply.out)
			seen[id] = reply
			r.ch <- reply
		}
	})
	if !submitted {
		for _, r := range w.reqs {
			r.ch <- coalesceReply{err: errSaturated}
		}
	}
}

// predictCoalesced is the single-predict path through the coalescer: the
// request enrolls into its model's window and waits for the flush.
func (s *Server) predictCoalesced(w http.ResponseWriter, r *http.Request, req *PredictRequest, key string, g *batchGroup) int {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	ch := s.coalesce.enroll(g, req.Data.Field, req.Data.Step)
	select {
	case reply := <-ch:
		switch {
		case errors.Is(reply.err, errSaturated):
			s.stats.reject()
			w.Header().Set("Retry-After", s.retryAfterPredict())
			return writeError(w, http.StatusTooManyRequests, "saturated: %d workers busy, queue full", s.cfg.Workers)
		case reply.err != nil:
			return writeError(w, http.StatusBadRequest, "%v", reply.err)
		case reply.out.Error != "":
			return writeError(w, http.StatusBadRequest, "%s", reply.out.Error)
		}
		resp := PredictResponse{
			Scheme:     g.schemeName,
			Compressor: g.compressor,
			Target:     g.target,
			Prediction: reply.out.Prediction,
			Interval:   reply.out.Interval,
			Model:      g.model,
		}
		// exactly one accounting bucket per request: a window sharer is a
		// coalesced hit, a cell already cached at flush time a cell hit,
		// and the one request that paid the computation a miss
		switch {
		case reply.shared:
			s.stats.coalescedHit()
		case reply.out.Cached:
			s.stats.cellHit()
		default:
			s.stats.cacheMiss()
		}
		s.cache.add(key, cacheValue{resp: resp, scheme: req.Scheme})
		resp.Cached = reply.out.Cached
		return writeJSON(w, http.StatusOK, resp)
	case <-ctx.Done():
		return writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %v", s.cfg.Deadline)
	}
}
