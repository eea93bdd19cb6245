package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// RouterConfig tunes the stateless cluster router.
type RouterConfig struct {
	// Members maps node names to base URLs.
	Members map[string]string
	// Replicas is R: how many members hold each partition (default all).
	Replicas int
	// ProbeInterval paces health probing (default 200ms).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive failed probes and forwards that
	// mark a member dead (default 2).
	FailThreshold int
	// Cooldown is how long a dead member waits past its last failure for
	// a recovery probe, and a failed adopt for its retry (default 1s).
	Cooldown time.Duration
	// RequestTimeout bounds every proxied request and probe (default 10s),
	// so a wedged backend can never pin a router connection.
	RequestTimeout time.Duration
	// Client performs backend calls (tests inject fault transports).
	Client *http.Client
	// Clock supplies time for cooldowns (default time.Now).
	Clock func() time.Time
}

func (c *RouterConfig) defaults() {
	if c.Replicas <= 0 || c.Replicas > len(c.Members) {
		c.Replicas = len(c.Members)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 200 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// routerMember is the router's view of one node.
type routerMember struct {
	name string
	base string
	// fails counts the member's consecutive failed probes and forwards:
	// it is live while fails < FailThreshold. failedAt stamps the last
	// failure, which a dead member's recovery probe waits Cooldown past.
	fails    int
	failedAt time.Time
	// lastSeq is the member's own stream position; applied is its
	// position in every other stream (both from /v1/repl/status).
	lastSeq uint64
	applied map[string]uint64

	nextAdoptTry time.Time // earliest next adopt targeting THIS dead member
}

// Router is the thin stateless entry point of the cluster: it owns no
// data, only liveness beliefs. Fits and invalidations go to partition
// owners (or their adopters after failover), predictions to any live
// replica within the client's staleness bound, and every response it
// originates is a well-formed 2xx/4xx/429/503 — backpressure, never a
// hang.
type Router struct {
	cfg  RouterConfig
	ring *Ring

	mu        sync.Mutex
	members   map[string]*routerMember
	overrides map[string]string // dead owner → adopter
	pins      map[string]string // partition key → pinned member
	repins    int
	failovers int
}

// NewRouter builds a router over the configured members.
func NewRouter(cfg RouterConfig) *Router {
	cfg.defaults()
	names := make([]string, 0, len(cfg.Members))
	for n := range cfg.Members {
		names = append(names, n)
	}
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(names),
		members:   map[string]*routerMember{},
		overrides: map[string]string{},
		pins:      map[string]string{},
	}
	for n, base := range cfg.Members {
		r.members[n] = &routerMember{name: n, base: base, applied: map[string]uint64{}}
	}
	return r
}

// live reports whether m admits requests. The caller holds r.mu.
func (r *Router) live(m *routerMember) bool { return m.fails < r.cfg.FailThreshold }

// record folds one probe or forward outcome into m's liveness. The
// caller holds r.mu.
func (r *Router) record(m *routerMember, err error) {
	if err == nil {
		m.fails = 0
		return
	}
	m.fails++
	m.failedAt = r.cfg.Clock()
}

// servedBy maps a member to the one serving its partitions: its adopter
// while it has one. The caller holds r.mu.
func (r *Router) servedBy(name string) string {
	if o, ok := r.overrides[name]; ok {
		return o
	}
	return name
}

// Start launches the probe/failover loop; it stops with ctx.
func (r *Router) Start(ctx context.Context) {
	go r.probeLoop(ctx)
}

func (r *Router) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		r.probeOnce(ctx)
		r.failoverOnce(ctx)
	}
}

// probeOnce health-checks every live member, and every dead one whose
// Cooldown has passed since its last failure, and refreshes the
// replication positions of those that answer.
func (r *Router) probeOnce(ctx context.Context) {
	now := r.cfg.Clock()
	r.mu.Lock()
	var due []*routerMember
	for _, m := range r.members {
		if r.live(m) || now.Sub(m.failedAt) >= r.cfg.Cooldown {
			due = append(due, m)
		}
	}
	r.mu.Unlock()
	for _, m := range due {
		err := r.call(ctx, http.MethodGet, m.base+"/healthz", nil, nil)
		// replication positions are best-effort: health already decided
		var st StatusResponse
		known := err == nil && r.call(ctx, http.MethodGet, m.base+"/v1/repl/status", nil, &st) == nil
		r.mu.Lock()
		r.record(m, err)
		if known {
			m.lastSeq = st.LastSeq
			for k, v := range st.Applied {
				m.applied[k] = v
			}
		}
		r.mu.Unlock()
	}
}

// call sends a control request to a member under the router's client
// and request timeout.
func (r *Router) call(ctx context.Context, method, url string, in, out any) error {
	return call(ctx, r.cfg.Client, r.cfg.RequestTimeout, method, url, in, out)
}

// failoverOnce reassigns ownership away from dead members: the live
// member most caught up on the dead node's stream adopts its journaled
// jobs and becomes the routing override for its partitions. A failed
// adopt is retried one Cooldown later, the cadence of the re-adopts. A
// recovered member takes its partitions back (its own journal recovery
// re-runs anything it still holds).
func (r *Router) failoverOnce(ctx context.Context) {
	type attempt struct {
		dead, adopter string
		base          string
		readopt       bool
	}
	var attempts []attempt
	now := r.cfg.Clock()
	r.mu.Lock()
	for name, m := range r.members {
		adopter, adopted := r.overrides[name]
		switch {
		case r.live(m):
			delete(r.overrides, name)
		case adopted && !r.live(r.members[adopter]):
			// an override pointing at a member that has since died is
			// worse than none: drop it so a live adopter can be chosen
			delete(r.overrides, name)
		case now.Before(m.nextAdoptTry):
		case adopted:
			// while the member stays dead, periodically re-adopt on the
			// standing adopter: journal records that reached only the
			// other follower keep trickling in over relays, and Adopt is
			// idempotent for everything already taken
			attempts = append(attempts, attempt{dead: name, adopter: adopter, base: r.members[adopter].base, readopt: true})
			m.nextAdoptTry = now.Add(r.cfg.Cooldown)
		default:
			// most-caught-up live follower on the dead node's stream
			// wins; ties break by name so concurrent routers pick the
			// same adopter
			best := ""
			var bestSeq uint64
			for on, om := range r.members {
				if on == name || !r.live(om) {
					continue
				}
				if best == "" || om.applied[name] > bestSeq ||
					(om.applied[name] == bestSeq && on < best) {
					best, bestSeq = on, om.applied[name]
				}
			}
			if best != "" {
				attempts = append(attempts, attempt{dead: name, adopter: best, base: r.members[best].base})
			}
		}
	}
	r.mu.Unlock()

	for _, a := range attempts {
		err := r.call(ctx, http.MethodPost, a.base+"/v1/repl/adopt", adoptRequest{Node: a.dead}, nil)
		r.mu.Lock()
		if err == nil {
			r.overrides[a.dead] = a.adopter
			if !a.readopt {
				// periodic re-adopts on the standing adopter are upkeep,
				// not new failover decisions
				r.failovers++
			}
		} else {
			r.members[a.dead].nextAdoptTry = r.cfg.Clock().Add(r.cfg.Cooldown)
		}
		r.mu.Unlock()
	}
}

// Handler returns the router's HTTP API: the predictd surface, proxied.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", r.toReplica(modelPartition))
	// a batch routes exactly like a single predict: same routing fields
	// in the body, same partition key, same replica pinning
	mux.HandleFunc("/v1/predict/batch", r.toReplica(modelPartition))
	// an observation cell (predict-bench -remote) routes by the buffer it
	// reads: the ring keeps a (field, step) on one node — the data-locality
	// placement of the paper's task queue, across processes — and the
	// breakers, probes and re-pins that serve predicts route around a dead
	// node for the bench too
	mux.HandleFunc("/v1/observe", r.toReplica(dataPartition))
	mux.HandleFunc("/v1/fit", r.handleOwnerPost)
	mux.HandleFunc("/v1/invalidate", r.handleInvalidate)
	mux.HandleFunc("/v1/jobs/", r.handleJobs)
	mux.HandleFunc("/v1/models", r.handleAnyGet)
	mux.HandleFunc("/statz", r.handleAnyGet)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/v1/router/status", r.handleStatus)
	return mux
}

// writeError writes the cluster's own error reply, {"error": msg} as
// JSON; a 503 always carries Retry-After.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// call sends one control request, bounded by timeout: in (unless nil)
// as its JSON body. A 200 reply is decoded into out (unless nil), a 204
// is success with no body, and any other status is an error.
func call(ctx context.Context, client *http.Client, timeout time.Duration, method, url string, in, out any) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return nil
	case resp.StatusCode != http.StatusOK:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("cluster: %s %s: HTTP %d", method, url, resp.StatusCode)
	case out == nil:
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// routeBody holds the fields routing needs from a body: a predict or fit
// names a model, an observe a dataset buffer.
type routeBody struct {
	Scheme     string `json:"scheme"`
	Compressor string `json:"compressor"`
	Field      string `json:"field"`
	Step       int    `json:"step"`
}

// A partitioner derives a request's partition key from its routing
// fields, or says which it lacks.
type partitioner func(rb *routeBody) (pk, missing string)

// modelPartition keys a predict or fit by the model it names.
func modelPartition(rb *routeBody) (string, string) {
	if rb.Scheme == "" || rb.Compressor == "" {
		return "", "scheme and compressor are required"
	}
	return PartitionKey(rb.Scheme, rb.Compressor), ""
}

// dataPartition keys an observe by the buffer it reads: the bench
// queue's own locality key, "field/step".
func dataPartition(rb *routeBody) (string, string) {
	if rb.Field == "" {
		return "", "field and step are required"
	}
	return rb.Field + "/" + strconv.Itoa(rb.Step), ""
}

// readBody buffers a bounded request body for re-sending across
// failover candidates.
func readBody(w http.ResponseWriter, req *http.Request) ([]byte, error) {
	defer req.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
}

// readRouted buffers a routed body and derives its partition key. On
// false it has already written the router's own 400.
func readRouted(w http.ResponseWriter, req *http.Request, partition partitioner) (body []byte, pk string, ok bool) {
	body, err := readBody(w, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body")
		return nil, "", false
	}
	var rb routeBody
	missing := "a JSON object is required"
	if json.Unmarshal(body, &rb) == nil {
		pk, missing = partition(&rb)
	}
	if missing != "" {
		writeError(w, http.StatusBadRequest, "%s", missing)
		return nil, "", false
	}
	return body, pk, true
}

// forward proxies one buffered request to a member, bounded by the
// request timeout. It returns 0 when the backend could not be reached or
// answered a non-503 5xx (nothing is written, so the caller may try
// another member); well-formed backend responses — including 429/503
// backpressure — are relayed as-is with Retry-After guaranteed, and
// their status returned.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, name string, body []byte, staleness uint64) int {
	m := r.members[name]
	cctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(cctx, req.Method, m.base+req.URL.RequestURI(), rd)
	if err != nil {
		return 0
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.cfg.Client.Do(out)
	r.mu.Lock()
	r.record(m, err)
	r.mu.Unlock()
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return 0
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("X-Served-By", name)
	w.Header().Set("X-Replica-Staleness", strconv.FormatUint(staleness, 10))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode
}

// toReplica serves a read-only POST from any live replica of its
// partition within the client's staleness bound (an observe sends none:
// it needs no model).
func (r *Router) toReplica(partition partitioner) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) { r.handleReplicaPost(w, req, partition) }
}

// target is a member a routed request may go to, with its lag behind
// the partition owner's stream.
type target struct {
	name  string
	stale uint64
}

// replicas snapshots, under one lock, the live replicas of pk within
// maxStale frames of its owner's stream, the pinned one first.
func (r *Router) replicas(pk string, maxStale uint64) []target {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner := r.members[r.servedBy(r.ring.Owner(pk))]
	var out []target
	for _, name := range r.ring.Replicas(pk, r.cfg.Replicas) {
		m := r.members[r.servedBy(name)]
		if !r.live(m) {
			continue
		}
		t := target{name: m.name}
		if m != owner && owner.lastSeq > m.applied[owner.name] {
			t.stale = owner.lastSeq - m.applied[owner.name]
		}
		if t.stale > maxStale {
			continue
		}
		out = append(out, t)
	}
	// stick with the pinned replica while it stays a candidate (warm
	// caches), fail over — and count the re-pin — when it does not
	for i, t := range out {
		if t.name == r.pins[pk] {
			copy(out[1:i+1], out[:i])
			out[0] = t
			break
		}
	}
	return out
}

func (r *Router) handleReplicaPost(w http.ResponseWriter, req *http.Request, partition partitioner) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, pk, ok := readRouted(w, req, partition)
	if !ok {
		return
	}
	maxStale := uint64(1<<63 - 1)
	if h := req.Header.Get("X-Max-Staleness"); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			maxStale = v
		}
	}
	targets := r.replicas(pk, maxStale)
	if len(targets) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no live replica for %s within staleness bound", pk)
		return
	}
	for _, t := range targets {
		status := r.forward(w, req, t.name, body, t.stale)
		if status == 0 {
			continue
		}
		// pin only what a node accepted: pk is client input until then, and
		// a pin per made-up scheme or field would grow the map without bound
		if status/100 == 2 {
			r.mu.Lock()
			if r.pins[pk] != t.name {
				if r.pins[pk] != "" {
					r.repins++
				}
				r.pins[pk] = t.name
			}
			r.mu.Unlock()
		}
		return
	}
	writeError(w, http.StatusServiceUnavailable, "all replicas for %s failed", pk)
}

// handleOwnerPost routes a fit to the partition owner (or its adopter).
func (r *Router) handleOwnerPost(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, pk, ok := readRouted(w, req, modelPartition)
	if !ok {
		return
	}
	r.mu.Lock()
	owner := r.servedBy(r.ring.Owner(pk))
	live := r.live(r.members[owner])
	r.mu.Unlock()
	if !live {
		// the owner is down and no adopter has taken over yet: shed the
		// write honestly instead of letting two nodes fit one opthash
		writeError(w, http.StatusServiceUnavailable, "owner %s of %s is unavailable (failover pending)", owner, pk)
		return
	}
	if r.forward(w, req, owner, body, 0) == 0 {
		writeError(w, http.StatusServiceUnavailable, "owner %s of %s failed", owner, pk)
	}
}

// handleInvalidate broadcasts to every live member and merges results:
// invalidation names option keys, not one partition, so every replica
// must drop its stale models (shipped deletes make stragglers converge).
func (r *Router) handleInvalidate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(w, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body")
		return
	}
	evicted := map[string]bool{}
	cleared := 0
	reached := 0
	for _, name := range r.liveMembers() {
		var ir serve.InvalidateResponse
		if r.call(req.Context(), http.MethodPost, r.members[name].base+"/v1/invalidate", json.RawMessage(body), &ir) != nil {
			continue
		}
		reached++
		for _, k := range ir.EvictedModels {
			evicted[k] = true
		}
		cleared += ir.ClearedCached
	}
	if reached == 0 {
		writeError(w, http.StatusServiceUnavailable, "no live member accepted the invalidation")
		return
	}
	keys := make([]string, 0, len(evicted))
	for k := range evicted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"evicted_models": keys, "cleared_cached": cleared, "members_reached": reached,
	})
}

// handleJobs fans a job lookup out to live members: after failover a
// job's record lives on the adopter, and the client should not care
// which node that is.
func (r *Router) handleJobs(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	live := r.liveMembers()
	if len(live) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no live members")
		return
	}
	for _, name := range live {
		var job json.RawMessage
		if r.call(req.Context(), http.MethodGet, r.members[name].base+req.URL.RequestURI(), nil, &job) != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Served-By", name)
		w.WriteHeader(http.StatusOK)
		w.Write(append(job, '\n'))
		return
	}
	writeError(w, http.StatusNotFound, "job not found on any live member")
}

// handleAnyGet forwards a read to the first live member.
func (r *Router) handleAnyGet(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, name := range r.liveMembers() {
		if r.forward(w, req, name, nil, 0) != 0 {
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "no live members")
}

// liveMembers returns the currently-live member names, sorted.
func (r *Router) liveMembers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name, m := range r.members {
		if r.live(m) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	live := r.liveMembers()
	w.Header().Set("Content-Type", "application/json")
	if len(live) == 0 {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	} else {
		w.WriteHeader(http.StatusOK)
	}
	json.NewEncoder(w).Encode(map[string]any{"status": "router", "live": live})
}

// RouterStatus is the /v1/router/status document.
type RouterStatus struct {
	Members   map[string]string `json:"members"` // name → "closed" (live) or "open" (dead)
	Overrides map[string]string `json:"overrides,omitempty"`
	Repins    int               `json:"repins"`
	Failovers int               `json:"failovers"`
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	st := RouterStatus{
		Members:   map[string]string{},
		Overrides: map[string]string{},
		Repins:    r.repins,
		Failovers: r.failovers,
	}
	for name, m := range r.members {
		st.Members[name] = "open"
		if r.live(m) {
			st.Members[name] = "closed"
		}
	}
	for k, v := range r.overrides {
		st.Overrides[k] = v
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
