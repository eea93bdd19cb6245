package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/store"
)

// fleetNode is one in-process predictd behind httptest. The wrapper
// around its handler is the test's eyes: which buffers it answered for,
// and whether it has refused a cell yet.
type fleetNode struct {
	name string
	srv  *serve.Server
	ts   *httptest.Server

	mu      sync.Mutex
	served  map[string]int // "field/step" → cells answered 200
	refused int            // cells answered 503
	// maskDrain keeps /healthz green after Drain until a cell has been
	// refused: the router's probe "has not noticed yet", deterministically
	maskDrain bool
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) { w.status = code; w.ResponseWriter.WriteHeader(code) }

func (n *fleetNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	inner := n.srv.Handler()
	switch r.URL.Path {
	case "/healthz":
		n.mu.Lock()
		mask := n.maskDrain && n.refused == 0
		n.mu.Unlock()
		if mask {
			io.WriteString(w, `{"status":"ok"}`)
			return
		}
		inner.ServeHTTP(w, r)
	case "/v1/observe":
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var cell core.Cell
		json.Unmarshal(body, &cell)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		inner.ServeHTTP(sw, r)
		n.mu.Lock()
		switch sw.status {
		case http.StatusOK:
			n.served[fmt.Sprintf("%s/%d", cell.Field, cell.Step)]++
		case http.StatusServiceUnavailable:
			n.refused++
		}
		n.mu.Unlock()
	default:
		inner.ServeHTTP(w, r)
	}
}

func (n *fleetNode) statz(t *testing.T) serve.Statz {
	t.Helper()
	var st serve.Statz
	getJSON(t, n.ts.URL+"/statz", &st)
	return st
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// fleet is predict-bench's remote side, in-process: predictd nodes and a
// cluster.Router over them, each behind httptest. base is what -remote
// would name.
type fleet struct {
	nodes map[string]*fleetNode
	base  string
}

func startFleet(t *testing.T, names []string, tweak func(*cluster.RouterConfig)) *fleet {
	t.Helper()
	f := &fleet{nodes: map[string]*fleetNode{}}
	cfg := cluster.RouterConfig{
		Members:       map[string]string{},
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
		Cooldown:      time.Minute, // a dead node stays dead for the test
	}
	for _, name := range names {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(st, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Recover(context.Background()); err != nil {
			t.Fatal(err)
		}
		n := &fleetNode{name: name, srv: srv, served: map[string]int{}}
		n.ts = httptest.NewServer(n)
		t.Cleanup(func() { n.ts.Close(); srv.Drain(); st.Close() })
		f.nodes[name] = n
		cfg.Members[name] = n.ts.URL
	}
	if tweak != nil {
		tweak(&cfg)
	}
	router := cluster.NewRouter(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	router.Start(ctx)
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)
	f.base = front.URL
	return f
}

func (f *fleet) routerStatus(t *testing.T) cluster.RouterStatus {
	t.Helper()
	var st cluster.RouterStatus
	getJSON(t, f.base+"/v1/router/status", &st)
	return st
}

// servedBy maps each buffer to the nodes that answered cells of it.
func (f *fleet) servedBy() map[string][]string {
	out := map[string][]string{}
	for name, n := range f.nodes {
		n.mu.Lock()
		for pk := range n.served {
			out[pk] = append(out[pk], name)
		}
		n.mu.Unlock()
	}
	return out
}

// TestRemoteCollectionIsTheLocalOne: a remote collection through the router is the local
// one bit for bit, and the ring gives it the queue's locality across
// processes — each buffer lives on one node, loaded once, with its
// error-agnostic results found on it by its later cells.
func TestRemoteCollectionIsTheLocalOne(t *testing.T) {
	f := startFleet(t, []string{"n1", "n2"}, nil)
	spec := tinySpec(t)
	spec.Fields = []string{"P", "CLOUD", "U"}
	spec.Steps = 2
	spec.Remote = f.base
	res, err := CollectDetailed(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	remoteObs := res.Observations
	if res.Data.Misses != 0 || res.MemoMisses != 0 {
		t.Errorf("a remote run loaded %d buffers and ran %d metrics in the driver", res.Data.Misses, res.MemoMisses)
	}

	buffers := len(spec.Fields) * spec.Steps
	var loads, memoHits uint64
	for _, n := range f.nodes {
		st := n.statz(t)
		loads += st.DataCache.Misses
		memoHits += st.FeatureMemo.Hits
	}
	if loads != uint64(buffers) || memoHits == 0 {
		t.Errorf("nodes loaded %d buffers for %d cells over %d buffers with %d memo hits: want each buffer loaded once, and hits",
			loads, len(remoteObs), buffers, memoHits)
	}
	by := f.servedBy()
	if len(by) != buffers {
		t.Errorf("%d buffers served, want %d", len(by), buffers)
	}
	for pk, nodes := range by {
		if len(nodes) != 1 {
			t.Errorf("buffer %s served by %v: the ring must keep it on one node", pk, nodes)
		}
	}

	localSpec := *spec
	localSpec.Remote = ""
	localObs, err := Collect(context.Background(), &localSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(remoteObs) != len(localObs) {
		t.Fatalf("remote %d vs local %d observations", len(remoteObs), len(localObs))
	}
	for i := range remoteObs {
		r, l := remoteObs[i], localObs[i]
		if r.Field != l.Field || r.Step != l.Step || r.Compressor != l.Compressor ||
			math.Float64bits(r.Bound) != math.Float64bits(l.Bound) || math.Float64bits(r.CR) != math.Float64bits(l.CR) ||
			r.ByteSize != l.ByteSize || r.Replicates != l.Replicates {
			t.Errorf("cell %d differs: remote %+v, local %+v", i, r, l)
		}
		if len(r.Features) != len(l.Features) {
			t.Errorf("cell %d: remote has %d features, local %d", i, len(r.Features), len(l.Features))
		}
		for k, lv := range l.Features {
			if rv, ok := r.Features[k]; !ok || math.Float64bits(rv) != math.Float64bits(lv) {
				t.Errorf("cell %d feature %s: remote %v, local %v", i, k, rv, lv)
			}
		}
	}
}

// TestObservationSurvivesTheWire: the reply is the checkpoint record, so
// every float64 bit pattern a node computes reaches the driver and its
// store — NaN payloads, ±Inf, −0 and a denormal included, which JSON
// could not carry.
func TestObservationSurvivesTheWire(t *testing.T) {
	odd := map[string]float64{
		"nan":      math.Float64frombits(0x7ff8_0000_dead_beef),
		"+inf":     math.Inf(1),
		"-inf":     math.Inf(-1),
		"-zero":    math.Copysign(0, -1),
		"denormal": math.SmallestNonzeroFloat64,
	}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req core.ObserveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		raw, _ := core.EncodeObservation(&Observation{
			Field: req.Field, Step: req.Step, Bound: req.Bound, Compressor: req.Compressor,
			Features: odd, CR: math.Float64frombits(0x7ff8_0000_0000_0001), Replicates: req.Replicates,
		})
		w.Write(raw)
	}))
	defer node.Close()

	spec := resilienceSpec()
	spec.Fields, spec.Steps, spec.Bounds = []string{"P"}, 1, []float64{1e-4}
	spec.Remote = node.URL
	spec.StoreDir = t.TempDir()
	check := func(obs []*Observation) {
		t.Helper()
		if len(obs) != 1 {
			t.Fatalf("%d observations, want 1", len(obs))
		}
		ob := obs[0]
		if math.Float64bits(ob.CR) != 0x7ff8_0000_0000_0001 || math.Float64bits(ob.Bound) != math.Float64bits(1e-4) {
			t.Errorf("CR bits %x, bound %v", math.Float64bits(ob.CR), ob.Bound)
		}
		for k, want := range odd {
			if got := ob.Features[k]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("feature %s: bits %x, want %x", k, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	obs, err := Collect(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	check(obs)
	// the store holds the bytes the node sent: a resume restores them
	node.Close()
	res, err := CollectDetailed(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueStats.Skipped != 1 {
		t.Errorf("resume skipped %d cells, want 1", res.QueueStats.Skipped)
	}
	check(res.Observations)
}

// TestFailoverWithDeadEndpoint: a node goes away mid-run — it drains,
// refusing its cells with 503, before the router's probe has noticed.
// The refused cell is the task's error, the queue retries it, the probe
// opens the node's breaker meanwhile and the router re-pins the buffer to
// the other node: every cell is collected.
func TestFailoverWithDeadEndpoint(t *testing.T) {
	f := startFleet(t, []string{"n1", "n2"}, nil)
	spec := resilienceSpec()
	spec.Workers = 1 // a buffer's two cells run back to back: the second meets the drained node
	spec.Retries = 8
	spec.Remote = f.base
	var drained *fleetNode
	spec.Progress = func(line string) {
		if drained != nil || strings.HasPrefix(line, "queue:") {
			return
		}
		for _, n := range f.nodes { // whoever answered the first cell holds its buffer's pin
			n.mu.Lock()
			if len(n.served) > 0 {
				n.maskDrain = true
				drained = n
			}
			n.mu.Unlock()
		}
		drained.srv.Drain()
	}
	res, err := CollectDetailed(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.Fields) * spec.Steps * len(spec.Bounds) * len(spec.Compressors)
	if len(res.Observations) != want || len(res.Failed) != 0 {
		t.Fatalf("observations = %d, want %d (failed: %v)", len(res.Observations), want, res.Failed)
	}
	if res.QueueStats.Retried == 0 {
		t.Error("the cell the draining node refused should have been retried")
	}
	st := f.routerStatus(t)
	if st.Repins == 0 {
		t.Error("no re-pin recorded though a pinned node went away")
	}
	if st.Members[drained.name] != "open" {
		t.Errorf("router sees %s as %q, want open", drained.name, st.Members[drained.name])
	}
	drained.mu.Lock()
	defer drained.mu.Unlock()
	if len(drained.served) != 1 || drained.refused == 0 {
		t.Errorf("drained node served %v and refused %d cells: want one buffer before the drain, refusals after", drained.served, drained.refused)
	}
}

// TestRemoteWorkerDown: nothing listens at -remote. Every attempt is a
// refused connection, the retry budget runs out, and the run says so —
// it does not hang.
func TestRemoteWorkerDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	spec := resilienceSpec()
	spec.Fields, spec.Steps = []string{"P"}, 1
	spec.Remote = dead.URL
	done := make(chan error, 1)
	go func() {
		_, err := Collect(context.Background(), spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no cell survived") {
			t.Errorf("err = %v, want no cell survived", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collect against a dead -remote hung")
	}
}

// TestScriptedEndpointDeathMidRun scripts "node A's observe route dies at
// its 4th call, forever" as an http rule on the router's client. The
// router's breaker and failover absorb it — the driver never sees an
// error — and the same seed replays the same fault log.
func TestScriptedEndpointDeathMidRun(t *testing.T) {
	names := []string{"n1", "n2"}
	spec0 := resilienceSpec()
	// A is whoever the ring gives the most buffers: at least half of the
	// six, so its fourth cell exists
	ring, owned := cluster.NewRing(names), map[string]int{}
	for _, field := range spec0.Fields {
		for step := 0; step < spec0.Steps; step++ {
			owned[ring.Owner(fmt.Sprintf("%s/%d", field, step))]++
		}
	}
	sort.Slice(names, func(i, j int) bool { return owned[names[i]] > owned[names[j]] })
	a := names[0]

	run := func() (kinds []string, obs, failed, retried int) {
		var plan *faultinject.Plan
		var host string
		f := startFleet(t, names, func(cfg *cluster.RouterConfig) {
			host = strings.TrimPrefix(cfg.Members[a], "http://")
			plan = faultinject.New(3, faultinject.Rule{
				Op: faultinject.OpHTTP, Kind: faultinject.KindReset,
				Worker: -1, Key: host + "/v1/observe", At: 4,
			})
			// no probe runs during the test: only the scripted calls move
			// A's breaker, so the log is the schedule's alone
			cfg.ProbeInterval = time.Hour
			cfg.FailThreshold = 2
			cfg.Client = &http.Client{Transport: &faultinject.RoundTripper{Plan: plan}}
		})
		spec := resilienceSpec()
		spec.Workers = 1 // one request at a time: a deterministic call order
		spec.Remote = f.base
		res, err := CollectDetailed(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range plan.Log() {
			kinds = append(kinds, fmt.Sprintf("#%d %s@%s", e.Seq, e.Kind, strings.TrimPrefix(e.Key, host)))
		}
		if st := f.routerStatus(t); st.Members[a] != "open" || st.Repins == 0 {
			t.Errorf("router status %+v: want %s open and a re-pin", st, a)
		}
		return kinds, len(res.Observations), len(res.Failed), res.QueueStats.Retried
	}
	k1, obs1, failed1, retried1 := run()
	k2, obs2, failed2, _ := run()
	total := 3 * 2 * 2 // fields × steps × bounds
	if obs1 != total || failed1 != 0 || retried1 != 0 {
		t.Errorf("run 1: %d observations, %d failed, %d retried; the router's failover should complete all %d unseen", obs1, failed1, retried1, total)
	}
	if len(k1) != 2 {
		t.Errorf("fault log %v: want A's 4th call and the one that opens its breaker", k1)
	}
	if fmt.Sprint(k1) != fmt.Sprint(k2) || obs1 != obs2 || failed1 != failed2 {
		t.Errorf("replay diverged: %v/%d/%d vs %v/%d/%d", k1, obs1, failed1, k2, obs2, failed2)
	}
}

// TestFaultPlanReachesRemoteRequests: Spec.FaultPlan's http rules fire on
// the driver's own requests (what -fault-plan 'http …' scripts), and an
// injected reset is an ordinary task error: retried, then collected.
func TestFaultPlanReachesRemoteRequests(t *testing.T) {
	f := startFleet(t, []string{"n1"}, nil)
	spec := resilienceSpec()
	spec.Workers = 1
	spec.Remote = f.base
	spec.FaultPlan = faultinject.New(5, faultinject.Rule{
		Op: faultinject.OpHTTP, Kind: faultinject.KindReset, Worker: -1, Key: "/v1/observe", At: 3, Count: 2,
	})
	res, err := CollectDetailed(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || res.QueueStats.Retried != 2 || len(spec.FaultPlan.Log()) != 2 {
		t.Errorf("failed %v, retried %d, fault log %v: want two resets, both retried", res.Failed, res.QueueStats.Retried, spec.FaultPlan.Log())
	}
}

// TestRemoteCancelAbortsRequest: a cell's request carries its attempt's
// context, so when the attempt times out the node learns of it and stops
// — what a net/rpc call, which had no context to carry, could not do.
func TestRemoteCancelAbortsRequest(t *testing.T) {
	var aborted atomic.Int64
	release := make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // the server watches the connection once the body is read
		select {
		case <-r.Context().Done():
			aborted.Add(1)
		case <-release:
		}
	}))
	defer node.Close()
	defer close(release)

	spec := resilienceSpec()
	spec.Fields, spec.Steps, spec.Bounds = []string{"P"}, 1, []float64{1e-4}
	spec.Remote = node.URL
	spec.TaskTimeout = 50 * time.Millisecond
	spec.Retries = -1
	start := time.Now()
	_, err := Collect(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "no cell survived") {
		t.Fatalf("err = %v, want the timed-out cell to fail the run", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("collect took %v: the timeout did not abort the request", took)
	}
	deadline := time.Now().Add(10 * time.Second)
	for aborted.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if aborted.Load() == 0 {
		t.Error("the node never saw its request's context end")
	}
}
