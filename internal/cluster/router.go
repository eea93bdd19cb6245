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

	"repro/internal/cluster/health"
)

// RouterConfig tunes the stateless cluster router.
type RouterConfig struct {
	// Members maps node names to base URLs.
	Members map[string]string
	// Replicas is R: how many members hold each partition (default all).
	Replicas int
	// ProbeInterval paces health probing (default 200ms).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive probe failures that mark a member
	// dead (default 2).
	FailThreshold int
	// Cooldown is how long a dead member waits before a recovery probe
	// (default 1s).
	Cooldown time.Duration
	// RequestTimeout bounds every proxied request and probe (default 10s),
	// so a wedged backend can never pin a router connection.
	RequestTimeout time.Duration
	// Client performs backend calls (tests inject fault transports).
	Client *http.Client
	// Clock supplies time for breaker cooldowns (default time.Now).
	Clock func() time.Time
	// Seed drives the failover backoff jitter.
	Seed uint64
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
	br   *health.Breaker
	// lastSeq is the member's own stream position; applied is its
	// position in every other stream (both from /v1/repl/status).
	lastSeq uint64
	applied map[string]uint64

	adoptAttempts int
	nextAdoptTry  time.Time // earliest next adopt targeting THIS dead member
}

// Router is the thin stateless entry point of the cluster: it owns no
// data, only liveness beliefs. Fits and invalidations go to partition
// owners (or their adopters after failover), predictions to any live
// replica within the client's staleness bound, and every response it
// originates is a well-formed 2xx/4xx/429/503 — backpressure, never a
// hang.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	backoff *health.Backoff

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
		backoff:   health.NewBackoff(cfg.Cooldown, 8*cfg.Cooldown, cfg.Seed),
		members:   map[string]*routerMember{},
		overrides: map[string]string{},
		pins:      map[string]string{},
	}
	for n, base := range cfg.Members {
		r.members[n] = &routerMember{
			name: n, base: base,
			br:      health.NewBreaker(cfg.FailThreshold, cfg.Cooldown, cfg.Clock),
			applied: map[string]uint64{},
		}
	}
	return r
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

// probeOnce health-checks every member whose breaker admits a probe and
// refreshes replication positions of live members.
func (r *Router) probeOnce(ctx context.Context) {
	r.mu.Lock()
	var due []*routerMember
	for _, m := range r.members {
		if m.br.Available() {
			if m.br.State() == health.StateHalfOpen {
				m.br.MarkProbing()
			}
			due = append(due, m)
		}
	}
	r.mu.Unlock()
	for _, m := range due {
		err := r.probeMember(ctx, m)
		r.mu.Lock()
		m.br.OnResult(err)
		r.mu.Unlock()
	}
}

func (r *Router) probeMember(ctx context.Context, m *routerMember) error {
	cctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodGet, m.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s /healthz: HTTP %d", m.name, resp.StatusCode)
	}
	// refresh replication positions (best-effort; health already passed)
	req, err = http.NewRequestWithContext(cctx, http.MethodGet, m.base+"/v1/repl/status", nil)
	if err != nil {
		return nil
	}
	sresp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		return nil
	}
	var st StatusResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		return nil
	}
	r.mu.Lock()
	m.lastSeq = st.LastSeq
	for k, v := range st.Applied {
		m.applied[k] = v
	}
	r.mu.Unlock()
	return nil
}

// failoverOnce reassigns ownership away from dead members: the live
// member most caught up on the dead node's stream adopts its journaled
// jobs and becomes the routing override for its partitions. Failed
// adopt attempts retry on a jittered backoff. A recovered member takes
// its partitions back (its own journal recovery re-runs anything it
// still holds).
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
		if m.br.State() == health.StateClosed {
			if _, ok := r.overrides[name]; ok {
				delete(r.overrides, name)
				m.adoptAttempts = 0
			}
			continue
		}
		if m.br.State() != health.StateOpen {
			continue
		}
		if adopter, ok := r.overrides[name]; ok {
			// an override pointing at a member that has since died is
			// worse than none: drop it so a live adopter can be chosen
			if am := r.members[adopter]; am == nil || am.br.State() != health.StateClosed {
				delete(r.overrides, name)
				m.adoptAttempts = 0
			} else if !now.Before(m.nextAdoptTry) {
				// while the member stays dead, periodically re-adopt on the
				// standing adopter: journal records that reached only the
				// other follower keep trickling in over relays, and Adopt is
				// idempotent for everything already taken
				attempts = append(attempts, attempt{dead: name, adopter: adopter, base: am.base, readopt: true})
				m.nextAdoptTry = now.Add(r.cfg.Cooldown)
			}
			continue
		}
		if now.Before(m.nextAdoptTry) {
			continue
		}
		// most-caught-up live follower on the dead node's stream wins;
		// ties break by name so concurrent routers pick the same adopter
		best := ""
		var bestSeq uint64
		for on, om := range r.members {
			if on == name || om.br.State() != health.StateClosed {
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
	r.mu.Unlock()

	for _, a := range attempts {
		err := r.postAdopt(ctx, a.base, a.dead)
		r.mu.Lock()
		m := r.members[a.dead]
		if err == nil {
			r.overrides[a.dead] = a.adopter
			if !a.readopt {
				// periodic re-adopts on the standing adopter are upkeep,
				// not new failover decisions
				r.failovers++
			}
			m.adoptAttempts = 0
		} else {
			m.adoptAttempts++
			m.nextAdoptTry = r.cfg.Clock().Add(r.backoff.Delay(m.adoptAttempts))
		}
		r.mu.Unlock()
	}
}

func (r *Router) postAdopt(ctx context.Context, base, dead string) error {
	body, _ := json.Marshal(adoptRequest{Node: dead})
	cctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost,
		base+"/v1/repl/adopt", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: adopt %s on %s: HTTP %d", dead, base, resp.StatusCode)
	}
	return nil
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

// unavailable writes the router's own 503 — always with Retry-After.
func unavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
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
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return nil, "", false
	}
	var rb routeBody
	missing := "a JSON object is required"
	if json.Unmarshal(body, &rb) == nil {
		pk, missing = partition(&rb)
	}
	if missing != "" {
		http.Error(w, `{"error":"`+missing+`"}`, http.StatusBadRequest)
		return nil, "", false
	}
	return body, pk, true
}

// liveName reports whether the named member currently admits requests.
func (r *Router) liveName(name string) bool {
	m := r.members[name]
	if m == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return m.br.State() == health.StateClosed
}

// resolveOwner maps a partition's ring owner through failover overrides.
func (r *Router) resolveOwner(pk string) string {
	owner := r.ring.Owner(pk)
	r.mu.Lock()
	defer r.mu.Unlock()
	if o, ok := r.overrides[owner]; ok {
		return o
	}
	return owner
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
	m.br.OnResult(err)
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

// stalenessOf estimates how many frames behind the partition owner's
// stream a candidate is (0 for the owner itself, or when the owner's
// position is unknown).
func (r *Router) stalenessOf(candidate, owner string) uint64 {
	if candidate == owner {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	om, cm := r.members[owner], r.members[candidate]
	if om == nil || cm == nil || om.lastSeq <= cm.applied[owner] {
		return 0
	}
	return om.lastSeq - cm.applied[owner]
}

// toReplica serves a read-only POST from any live replica of its
// partition within the client's staleness bound (an observe sends none:
// it needs no model).
func (r *Router) toReplica(partition partitioner) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) { r.handleReplicaPost(w, req, partition) }
}

func (r *Router) handleReplicaPost(w http.ResponseWriter, req *http.Request, partition partitioner) {
	if req.Method != http.MethodPost {
		http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
		return
	}
	body, pk, ok := readRouted(w, req, partition)
	if !ok {
		return
	}
	owner := r.resolveOwner(pk)
	maxStale := uint64(1<<63 - 1)
	if h := req.Header.Get("X-Max-Staleness"); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil {
			maxStale = v
		}
	}
	var candidates []string
	for _, name := range r.ring.Replicas(pk, r.cfg.Replicas) {
		if o, ok := r.overrideFor(name); ok {
			name = o
		}
		if r.liveName(name) && r.stalenessOf(name, owner) <= maxStale {
			candidates = append(candidates, name)
		}
	}
	if len(candidates) == 0 {
		unavailable(w, "no live replica for %s within staleness bound", pk)
		return
	}
	// stick with the pinned replica while it stays a candidate (warm
	// caches), fail over — and count the re-pin — when it does not
	r.mu.Lock()
	pinned := r.pins[pk]
	r.mu.Unlock()
	order := candidates
	if i := indexOf(candidates, pinned); i > 0 {
		order = append([]string{pinned}, removeAt(candidates, i)...)
	}
	for _, name := range order {
		status := r.forward(w, req, name, body, r.stalenessOf(name, owner))
		if status == 0 {
			continue
		}
		// pin only what a node accepted: pk is client input until then, and
		// a pin per made-up scheme or field would grow the map without bound
		if status/100 == 2 {
			r.mu.Lock()
			if r.pins[pk] != name {
				if r.pins[pk] != "" {
					r.repins++
				}
				r.pins[pk] = name
			}
			r.mu.Unlock()
		}
		return
	}
	unavailable(w, "all replicas for %s failed", pk)
}

func (r *Router) overrideFor(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.overrides[name]
	return o, ok
}

// handleOwnerPost routes a fit to the partition owner (or its adopter).
func (r *Router) handleOwnerPost(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
		return
	}
	body, pk, ok := readRouted(w, req, modelPartition)
	if !ok {
		return
	}
	owner := r.resolveOwner(pk)
	if !r.liveName(owner) {
		// the owner is down and no adopter has taken over yet: shed the
		// write honestly instead of letting two nodes fit one opthash
		unavailable(w, "owner %s of %s is unavailable (failover pending)", owner, pk)
		return
	}
	if r.forward(w, req, owner, body, 0) == 0 {
		unavailable(w, "owner %s of %s failed", owner, pk)
	}
}

// handleInvalidate broadcasts to every live member and merges results:
// invalidation names option keys, not one partition, so every replica
// must drop its stale models (shipped deletes make stragglers converge).
func (r *Router) handleInvalidate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(w, req)
	if err != nil {
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return
	}
	evicted := map[string]bool{}
	cleared := 0
	reached := 0
	for _, name := range r.liveMembers() {
		m := r.members[name]
		cctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
		out, nerr := http.NewRequestWithContext(cctx, http.MethodPost,
			m.base+"/v1/invalidate", bytes.NewReader(body))
		if nerr != nil {
			cancel()
			continue
		}
		out.Header.Set("Content-Type", "application/json")
		resp, derr := r.cfg.Client.Do(out)
		if derr != nil {
			cancel()
			continue
		}
		var ir struct {
			EvictedModels []string `json:"evicted_models"`
			ClearedCached int      `json:"cleared_cached"`
		}
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ir) == nil {
			reached++
			for _, k := range ir.EvictedModels {
				evicted[k] = true
			}
			cleared += ir.ClearedCached
		}
		resp.Body.Close()
		cancel()
	}
	if reached == 0 {
		unavailable(w, "no live member accepted the invalidation")
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
		http.Error(w, `{"error":"GET only"}`, http.StatusMethodNotAllowed)
		return
	}
	live := r.liveMembers()
	if len(live) == 0 {
		unavailable(w, "no live members")
		return
	}
	for _, name := range live {
		m := r.members[name]
		cctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
		out, nerr := http.NewRequestWithContext(cctx, http.MethodGet, m.base+req.URL.RequestURI(), nil)
		if nerr != nil {
			cancel()
			continue
		}
		resp, derr := r.cfg.Client.Do(out)
		if derr != nil {
			cancel()
			continue
		}
		if resp.StatusCode == http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Served-By", name)
			w.WriteHeader(http.StatusOK)
			io.Copy(w, resp.Body)
			resp.Body.Close()
			cancel()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
	}
	http.Error(w, `{"error":"job not found on any live member"}`, http.StatusNotFound)
}

// handleAnyGet forwards a read to the first live member.
func (r *Router) handleAnyGet(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, `{"error":"GET only"}`, http.StatusMethodNotAllowed)
		return
	}
	for _, name := range r.liveMembers() {
		if r.forward(w, req, name, nil, 0) != 0 {
			return
		}
	}
	unavailable(w, "no live members")
}

// liveMembers returns the currently-live member names, sorted.
func (r *Router) liveMembers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name, m := range r.members {
		if m.br.State() == health.StateClosed {
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
	Members   map[string]string `json:"members"` // name → breaker state
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
		st.Members[name] = m.br.State()
	}
	for k, v := range r.overrides {
		st.Overrides[k] = v
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

func removeAt(xs []string, i int) []string {
	out := append([]string(nil), xs[:i]...)
	return append(out, xs[i+1:]...)
}
