package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeMember simulates one predictd node's HTTP surface for router tests.
type fakeMember struct {
	name string
	srv  *httptest.Server

	mu       sync.Mutex
	healthy  bool
	probes   int // /healthz requests answered
	status   StatusResponse
	adopted  []string
	adoptAt  []time.Time // arrival of every adopt POST, failed ones too
	fits     int
	predicts int
	hasJob   bool
	adoptErr bool
}

func newFakeMember(name string) *fakeMember {
	m := &fakeMember{name: name, healthy: true, status: StatusResponse{Node: name, Applied: map[string]uint64{}}}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		m.probes++
		ok := m.healthy
		m.mu.Unlock()
		if !ok {
			http.Error(w, `{"status":"down"}`, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/repl/status", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		defer m.mu.Unlock()
		json.NewEncoder(w).Encode(m.status)
	})
	mux.HandleFunc("/v1/repl/adopt", func(w http.ResponseWriter, r *http.Request) {
		var req adoptRequest
		json.NewDecoder(r.Body).Decode(&req)
		m.mu.Lock()
		defer m.mu.Unlock()
		m.adoptAt = append(m.adoptAt, time.Now())
		if m.adoptErr {
			http.Error(w, `{"error":"adopt failed"}`, http.StatusInternalServerError)
			return
		}
		m.adopted = append(m.adopted, req.Node)
		json.NewEncoder(w).Encode(map[string]int{"adopted": 1})
	})
	// like a real node, a member refuses names it does not know ("bogus…")
	predict := func(w http.ResponseWriter, r *http.Request) {
		var rb routeBody
		json.NewDecoder(r.Body).Decode(&rb)
		if strings.HasPrefix(rb.Scheme, "bogus") || strings.HasPrefix(rb.Field, "bogus") {
			http.Error(w, `{"error":"unknown name"}`, http.StatusBadRequest)
			return
		}
		m.mu.Lock()
		m.predicts++
		m.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"prediction": 0.5, "served_by": m.name})
	}
	mux.HandleFunc("/v1/predict", predict)
	mux.HandleFunc("/v1/predict/batch", predict)
	mux.HandleFunc("/v1/observe", predict)
	mux.HandleFunc("/v1/fit", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		m.fits++
		m.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"job_id": "job-" + m.name + "-1"})
	})
	mux.HandleFunc("/v1/invalidate", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"evicted_models": []string{"model/" + m.name}, "cleared_cached": 1,
		})
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		has := m.hasJob
		m.mu.Unlock()
		if !has {
			http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"state": "done"})
	})
	m.srv = httptest.NewServer(mux)
	return m
}

func (m *fakeMember) setHealthy(ok bool) {
	m.mu.Lock()
	m.healthy = ok
	m.mu.Unlock()
}

// overrideFor reads the failover override standing for a member.
func (r *Router) overrideFor(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.overrides[name]
	return o, ok
}

func startRouter(t *testing.T, members map[string]*fakeMember, tweak func(*RouterConfig)) *Router {
	t.Helper()
	cfg := RouterConfig{
		Members:        map[string]string{},
		ProbeInterval:  10 * time.Millisecond,
		FailThreshold:  1,
		Cooldown:       100 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	}
	for name, m := range members {
		cfg.Members[name] = m.srv.URL
		t.Cleanup(m.srv.Close)
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r := NewRouter(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.Start(ctx)
	return r
}

func threeMembers() map[string]*fakeMember {
	return map[string]*fakeMember{
		"n1": newFakeMember("n1"), "n2": newFakeMember("n2"), "n3": newFakeMember("n3"),
	}
}

func postJSON(h http.Handler, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// checkWellFormed asserts the degradation contract: only 2xx/4xx/429/503,
// and backpressure statuses always carry Retry-After.
func checkWellFormed(t *testing.T, w *httptest.ResponseRecorder) {
	t.Helper()
	code := w.Code
	if !(code >= 200 && code < 300) && !(code >= 400 && code < 500) && code != 503 {
		t.Errorf("router answered HTTP %d", code)
	}
	if (code == 429 || code == 503) && w.Header().Get("Retry-After") == "" {
		t.Errorf("HTTP %d without Retry-After", code)
	}
}

func TestRouterPredictRoutesAndPins(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })
	h := r.Handler()

	body := `{"scheme":"s","compressor":"c","features":{"f":1}}`
	w := postJSON(h, "/v1/predict", body, nil)
	checkWellFormed(t, w)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	first := w.Header().Get("X-Served-By")
	if first == "" {
		t.Fatal("no X-Served-By header")
	}
	// the partition pins: a second identical request lands on the same replica
	w2 := postJSON(h, "/v1/predict", body, nil)
	if got := w2.Header().Get("X-Served-By"); got != first {
		t.Errorf("pin broke: %s then %s", first, got)
	}

	if w := postJSON(h, "/v1/predict", `{"features":{}}`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("predict without scheme/compressor = %d", w.Code)
	}
}

// TestRouterPinsOnlyAcceptedKeys: the partition key is client input until
// a node has accepted the request, so a request a node answers 400 leaves
// no pin — N made-up scheme or field names must not grow the map by N.
func TestRouterPinsOnlyAcceptedKeys(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })
	h := r.Handler()
	pins := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.pins)
	}
	if w := postJSON(h, "/v1/predict", `{"scheme":"s","compressor":"c"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	if w := postJSON(h, "/v1/observe", `{"field":"P","step":3}`, nil); w.Code != http.StatusOK {
		t.Fatalf("observe = %d: %s", w.Code, w.Body)
	}
	before := pins()
	if before != 2 {
		t.Fatalf("%d pins after two accepted partitions, want 2", before)
	}
	const n = 50
	for i := 0; i < n; i++ {
		for path, body := range map[string]string{
			"/v1/predict": fmt.Sprintf(`{"scheme":"bogus-%d","compressor":"c"}`, i),
			"/v1/observe": fmt.Sprintf(`{"field":"bogus-%d","step":0}`, i),
		} {
			w := postJSON(h, path, body, nil)
			checkWellFormed(t, w)
			if w.Code != http.StatusBadRequest || w.Header().Get("X-Served-By") == "" {
				t.Fatalf("%s %s = %d served by %q, want a member's 400 relayed", path, body, w.Code, w.Header().Get("X-Served-By"))
			}
		}
	}
	if got := pins(); got != before {
		t.Errorf("%d refused keys left %d pins, want the %d accepted ones", 2*n, got, before)
	}
}

// TestRouterRoutesObserveByBuffer: an observation cell is routed by the
// (field, step) it reads — the bench queue's locality key — to the ring's
// owner of that key, whatever else the body says; a dead owner's buffers
// re-pin to the next replica, counted, and a body without a field is the
// router's own 400.
func TestRouterRoutesObserveByBuffer(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })
	h := r.Handler()
	ring := NewRing([]string{"n1", "n2", "n3"})
	owners := map[string]bool{}
	for step := 0; step < 12; step++ {
		want := ring.Owner(fmt.Sprintf("U/%d", step))
		owners[want] = true
		for _, bound := range []string{"1e-4", "1e-2"} {
			w := postJSON(h, "/v1/observe", fmt.Sprintf(`{"field":"U","step":%d,"bound":%s,"compressor":"sz3"}`, step, bound), nil)
			checkWellFormed(t, w)
			if got := w.Header().Get("X-Served-By"); w.Code != http.StatusOK || got != want {
				t.Errorf("U/%d at %s: %d served by %q, want the ring owner %q", step, bound, w.Code, got, want)
			}
		}
	}
	if len(owners) < 2 {
		t.Errorf("twelve buffers all hashed to %v: the ring is not spreading them", owners)
	}
	if w := postJSON(h, "/v1/observe", `{"step":1,"compressor":"sz3"}`, nil); w.Code != http.StatusBadRequest || w.Header().Get("X-Served-By") != "" {
		t.Errorf("observe without a field = %d served by %q, want the router's own 400", w.Code, w.Header().Get("X-Served-By"))
	}

	dead := ring.Owner("U/0")
	members[dead].srv.CloseClientConnections()
	members[dead].srv.Close()
	w := postJSON(h, "/v1/observe", `{"field":"U","step":0}`, nil)
	checkWellFormed(t, w)
	if got := w.Header().Get("X-Served-By"); w.Code != http.StatusOK || got == dead || got == "" {
		t.Errorf("after %s died: %d served by %q, want a surviving replica", dead, w.Code, got)
	}
	r.mu.Lock()
	repins := r.repins
	r.mu.Unlock()
	if repins != 1 {
		t.Errorf("repins = %d, want 1", repins)
	}
}

// TestRouterRoutesBatchByEnvelope: a batch is routed by the scheme and
// compressor its one JSON body names, exactly as a single is — to the
// replica the partition is pinned to — and a body the router cannot read
// them from is its own 400, forwarded to nobody.
func TestRouterRoutesBatchByEnvelope(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })
	h := r.Handler()
	forwarded := func() int {
		n := 0
		for _, m := range members {
			m.mu.Lock()
			n += m.predicts
			m.mu.Unlock()
		}
		return n
	}

	w := postJSON(h, "/v1/predict", `{"scheme":"s","compressor":"c","features":[1]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("single = %d: %s", w.Code, w.Body)
	}
	pinned := w.Header().Get("X-Served-By")
	for i := 0; i < 3; i++ {
		w = postJSON(h, "/v1/predict/batch", `{"scheme":"s","compressor":"c","fields":["P","P"],"steps":[0,1]}`, nil)
		checkWellFormed(t, w)
		if w.Code != http.StatusOK {
			t.Fatalf("batch = %d: %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Served-By"); got == "" || got != pinned {
			t.Errorf("batch served by %q, the single for the same partition by %q", got, pinned)
		}
	}

	before := forwarded()
	for name, body := range map[string]string{
		"no scheme":      `{"compressor":"c","fields":["P"],"steps":[0]}`,
		"two JSON lines": `{"scheme":"s","compressor":"c"}` + "\n" + `{"field":"P","step":0}` + "\n",
		"not json":       "\x1f\x00\x00\x00" + `{"scheme":"s","compressor":"c"}`,
	} {
		w := postJSON(h, "/v1/predict/batch", body, nil)
		if w.Code != http.StatusBadRequest || w.Header().Get("X-Served-By") != "" {
			t.Errorf("%s: %d served by %q, want the router's own 400", name, w.Code, w.Header().Get("X-Served-By"))
		}
	}
	if got := forwarded(); got != before {
		t.Errorf("%d unroutable batches reached a member", got-before)
	}
}

func TestRouterFitGoesToOwnerOnly(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })

	owner := r.ring.Owner(PartitionKey("s", "c"))
	w := postJSON(r.Handler(), "/v1/fit", `{"scheme":"s","compressor":"c"}`, nil)
	checkWellFormed(t, w)
	if w.Code != http.StatusAccepted {
		t.Fatalf("fit = %d: %s", w.Code, w.Body)
	}
	for name, m := range members {
		m.mu.Lock()
		fits := m.fits
		m.mu.Unlock()
		if name == owner && fits != 1 {
			t.Errorf("owner %s saw %d fits", name, fits)
		}
		if name != owner && fits != 0 {
			t.Errorf("non-owner %s saw %d fits", name, fits)
		}
	}
}

func TestRouterFailoverAdoptsAndReroutes(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })

	pk := PartitionKey("s", "c")
	owner := r.ring.Owner(pk)
	// make one survivor clearly most caught-up on the dead stream so the
	// adopter choice is deterministic
	var best string
	for name, m := range members {
		if name == owner {
			continue
		}
		m.mu.Lock()
		if best == "" {
			best = name
			m.status.Applied[owner] = 42
		} else {
			m.status.Applied[owner] = 1
		}
		m.mu.Unlock()
	}
	members[owner].setHealthy(false)

	waitFor(t, "failover override", func() bool {
		if o, ok := r.overrideFor(owner); ok {
			return o == best
		}
		return false
	})
	members[best].mu.Lock()
	adopted := append([]string(nil), members[best].adopted...)
	members[best].mu.Unlock()
	if len(adopted) == 0 || adopted[0] != owner {
		t.Fatalf("adopter %s adopted %v", best, adopted)
	}

	// fits for the dead owner's partition now land on the adopter
	w := postJSON(r.Handler(), "/v1/fit", `{"scheme":"s","compressor":"c"}`, nil)
	if w.Code != http.StatusAccepted || w.Header().Get("X-Served-By") != best {
		t.Fatalf("fit after failover = %d served by %s", w.Code, w.Header().Get("X-Served-By"))
	}

	// the owner comes back: the override clears and it takes the
	// partition again
	members[owner].setHealthy(true)
	waitFor(t, "owner reinstated", func() bool {
		_, ok := r.overrideFor(owner)
		return !ok
	})
}

func TestRouterShedsFitWhileFailoverPending(t *testing.T) {
	members := threeMembers()
	for _, m := range members {
		m.adoptErr = true // no adoption can succeed
	}
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })

	owner := r.ring.Owner(PartitionKey("s", "c"))
	members[owner].setHealthy(false)
	waitFor(t, "owner marked dead", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return !r.live(r.members[owner])
	})

	// no adopter: fits must shed with a well-formed 503, never hang and
	// never land on a non-owner
	w := postJSON(r.Handler(), "/v1/fit", `{"scheme":"s","compressor":"c"}`, nil)
	checkWellFormed(t, w)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("fit with dead owner = %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "failover pending") {
		t.Errorf("body = %s", w.Body)
	}
	for name, m := range members {
		m.mu.Lock()
		fits := m.fits
		m.mu.Unlock()
		if name != owner && fits != 0 {
			t.Errorf("non-owner %s received a fit during failover", name)
		}
	}
	// predictions still flow to surviving replicas
	w = postJSON(r.Handler(), "/v1/predict", `{"scheme":"s","compressor":"c"}`, nil)
	if w.Code != http.StatusOK {
		t.Errorf("predict during failover = %d", w.Code)
	}

	// every adopt fails: each is retried one Cooldown after the last
	adoptAt := func() (all [][]time.Time) {
		for _, m := range members {
			m.mu.Lock()
			all = append(all, append([]time.Time(nil), m.adoptAt...))
			m.mu.Unlock()
		}
		return all
	}
	waitFor(t, "three adopt attempts", func() bool {
		n := 0
		for _, at := range adoptAt() {
			n += len(at)
		}
		return n >= 3
	})
	for _, at := range adoptAt() {
		for i := 1; i < len(at); i++ {
			if gap := at[i].Sub(at[i-1]); gap < 100*time.Millisecond {
				t.Errorf("adopt %d came %v after the one before, want at least the 100ms Cooldown", i, gap)
			}
		}
	}
}

// TestRouterLivenessRule walks the router's one liveness rule on a fake
// clock: FailThreshold straight failures kill a member, a success in
// between resets the count, and a dead member is probed again only
// Cooldown past its last failure.
func TestRouterLivenessRule(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	fm := newFakeMember("n1")
	defer fm.srv.Close()
	now := time.Unix(1000, 0)
	// not started: the test drives every probe round itself
	r := NewRouter(RouterConfig{
		Members:       map[string]string{"n1": fm.srv.URL},
		FailThreshold: 3,
		Cooldown:      cooldown,
		Clock:         func() time.Time { return now },
	})
	ctx := context.Background()
	state := func() string {
		w := httptest.NewRecorder()
		r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/router/status", nil))
		var st RouterStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.Members["n1"]
	}
	probes := func() int {
		fm.mu.Lock()
		defer fm.mu.Unlock()
		return fm.probes
	}
	step := func(what string, advance time.Duration, wantProbed bool, want string) {
		t.Helper()
		now = now.Add(advance)
		before := probes()
		r.probeOnce(ctx)
		if probed := probes() > before; probed != wantProbed {
			t.Fatalf("%s: probed = %v, want %v", what, probed, wantProbed)
		}
		if got := state(); got != want {
			t.Fatalf("%s: state %q, want %q", what, got, want)
		}
	}

	fm.setHealthy(false)
	step("failed probe 1 of 3", 0, true, "closed")
	step("failed probe 2 of 3", 0, true, "closed")
	if w := postJSON(r.Handler(), "/v1/predict", `{"scheme":"s","compressor":"c"}`, nil); w.Code != http.StatusOK {
		t.Fatalf("predict = %d: %s", w.Code, w.Body)
	}
	step("a forward reset the count: failed probe 1 of 3", 0, true, "closed")
	step("failed probe 2 of 3", 0, true, "closed")
	step("the third straight failure kills it", 0, true, "open")
	step("no probe before the cooldown", cooldown-time.Nanosecond, false, "open")
	step("the cooldown passed: a revival probe, which fails", time.Nanosecond, true, "open")
	step("the failed revival restarted the cooldown", cooldown-time.Nanosecond, false, "open")
	fm.setHealthy(true)
	step("the next revival probe answers: live again", time.Nanosecond, true, "closed")
	step("a live member is probed every round", 0, true, "closed")
}

func TestRouterStalenessBound(t *testing.T) {
	members := threeMembers()
	// router not started: breakers stay closed (live), and we control the
	// replication positions directly
	cfg := RouterConfig{Members: map[string]string{}, FailThreshold: 100}
	for name, m := range members {
		cfg.Members[name] = m.srv.URL
		defer m.srv.Close()
	}
	r := NewRouter(cfg)

	pk := PartitionKey("s", "c")
	owner := r.ring.Owner(pk)
	reps := r.ring.Replicas(pk, len(members))
	follower := reps[1]
	r.mu.Lock()
	r.members[owner].lastSeq = 10
	for _, name := range reps[1:] {
		r.members[name].applied = map[string]uint64{owner: 4} // 6 behind
	}
	r.mu.Unlock()
	// kill the owner's backend so only followers can answer
	members[owner].srv.Close()

	// bound 3 < lag 6: no follower qualifies, owner is unreachable
	w := postJSON(r.Handler(), "/v1/predict", `{"scheme":"s","compressor":"c"}`,
		map[string]string{"X-Max-Staleness": "3"})
	checkWellFormed(t, w)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict under tight staleness = %d", w.Code)
	}

	// bound 10 ≥ lag 6: a follower serves, and the response reports its lag
	w = postJSON(r.Handler(), "/v1/predict", `{"scheme":"s","compressor":"c"}`,
		map[string]string{"X-Max-Staleness": "10"})
	if w.Code != http.StatusOK {
		t.Fatalf("predict under loose staleness = %d: %s", w.Code, w.Body)
	}
	if by := w.Header().Get("X-Served-By"); by == owner {
		t.Errorf("dead owner served the request")
	} else if by != follower && w.Header().Get("X-Replica-Staleness") != "6" {
		t.Errorf("staleness header = %q from %s", w.Header().Get("X-Replica-Staleness"), by)
	}
}

func TestRouterInvalidateBroadcasts(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })

	w := postJSON(r.Handler(), "/v1/invalidate", `{"compressor":"c","keys":["k"]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("invalidate = %d: %s", w.Code, w.Body)
	}
	var out struct {
		Evicted []string `json:"evicted_models"`
		Reached int      `json:"members_reached"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Reached != 3 || len(out.Evicted) != 3 {
		t.Errorf("invalidate merged %+v", out)
	}
}

func TestRouterJobsFanOut(t *testing.T) {
	members := threeMembers()
	members["n2"].hasJob = true
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-n2-1", nil)
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Header().Get("X-Served-By") != "n2" {
		t.Fatalf("jobs fan-out = %d served by %q", w.Code, w.Header().Get("X-Served-By"))
	}

	members["n2"].mu.Lock()
	members["n2"].hasJob = false
	members["n2"].mu.Unlock()
	w = httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-x", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("missing job = %d", w.Code)
	}
}

func TestRouterDegradesWellFormedWhenAllDead(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })
	for _, m := range members {
		m.setHealthy(false)
	}
	waitFor(t, "all members dead", func() bool { return len(r.liveMembers()) == 0 })

	h := r.Handler()
	for _, probe := range []func() *httptest.ResponseRecorder{
		func() *httptest.ResponseRecorder {
			return postJSON(h, "/v1/predict", `{"scheme":"s","compressor":"c"}`, nil)
		},
		func() *httptest.ResponseRecorder {
			return postJSON(h, "/v1/fit", `{"scheme":"s","compressor":"c"}`, nil)
		},
		func() *httptest.ResponseRecorder {
			return postJSON(h, "/v1/invalidate", `{}`, nil)
		},
		func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			return w
		},
	} {
		w := probe()
		checkWellFormed(t, w)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("all-dead response = %d: %s", w.Code, w.Body)
		}
	}
}

func TestRouterStatusDocument(t *testing.T) {
	members := threeMembers()
	r := startRouter(t, members, nil)
	waitFor(t, "all members live", func() bool { return len(r.liveMembers()) == 3 })

	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/router/status", nil))
	var st RouterStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 3 || st.Members["n1"] != "closed" {
		t.Errorf("status = %+v", st)
	}
}
