package cluster_test

// Multi-process cluster harness: builds the real predictd binary, boots a
// 3-node replicated cluster plus a router as separate OS processes, drives
// fit/predict load through the router, and kills the partition owner with
// SIGKILL — both at seeded fault points (exact store/replication
// operations, via -fault-plan crash rules that exit 137) and at randomized
// wall-clock offsets. The invariants checked after every kill:
//
//   - no acknowledged fit job is lost: every 202'd job reaches "done"
//     on a survivor after failover
//   - no opthash is published twice with divergent bytes: every node's
//     divergence counter stays 0 and model state hashes agree across nodes
//   - the router degrades gracefully: every response is a well-formed
//     2xx/4xx/429/503 (backpressure always carries Retry-After) and no
//     request ever hangs (client timeouts are the hang detector)
//
// The cluster is deployed through scenario.Deploy, the one place that
// knows how to start predictd processes from Go; this file is an external
// test package because internal/scenario imports internal/cluster.
//
// Run via `make cluster-check` (wired into `make check`); `-short` skips.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

const (
	harnessScheme     = "krasowska2021"
	harnessCompressor = "sz3"
)

var (
	harnessNames = []string{"n1", "n2", "n3"}
	// harnessOwner is the ring owner of the one partition the tests load.
	harnessOwner = cluster.NewRing(harnessNames).Owner(cluster.PartitionKey(harnessScheme, harnessCompressor))
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// TestMain removes the once-per-run predictd build when the run ends.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildPath != "" {
		os.RemoveAll(filepath.Dir(buildPath))
	}
	os.Exit(code)
}

// predictdBinary builds cmd/predictd once per test run (with -race, so
// the daemons themselves run under the detector).
func predictdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		var dir string
		if dir, buildErr = os.MkdirTemp("", "predictd-harness-"); buildErr == nil {
			buildPath, buildErr = scenario.BuildPredictd(context.Background(), "../..", dir)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}

// harness is a running 3-node cluster + router.
type harness struct {
	*scenario.Harness
	nodes map[string]*scenario.Proc
}

// startHarness deploys the cluster; faultPlans maps node name →
// -fault-plan text for that node's first launch.
func startHarness(t *testing.T, faultPlans map[string]string) *harness {
	t.Helper()
	extra := map[string][]string{}
	for name, plan := range faultPlans {
		extra[name] = []string{"-fault-plan", plan, "-fault-seed", "1"}
	}
	dep, err := scenario.Deploy(context.Background(), predictdBinary(t), t.TempDir(),
		scenario.Topology{Nodes: len(harnessNames), ProbeIntervalMS: 50, PollIntervalMS: 20}, extra)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{Harness: dep, nodes: map[string]*scenario.Proc{}}
	for _, p := range dep.Nodes {
		h.nodes[p.Name] = p
	}
	t.Cleanup(func() {
		if err := dep.Close(); err != nil {
			t.Error(err)
		}
		if t.Failed() {
			for _, p := range append([]*scenario.Proc{dep.Router}, dep.Nodes...) {
				if log := p.Log(); log != "" {
					t.Logf("--- %s log ---\n%s", p.Name, log)
				}
			}
		}
	})
	return h
}

// checkWellFormedResp enforces the degradation contract on a live
// router response.
func checkWellFormedResp(t *testing.T, resp *http.Response) {
	t.Helper()
	code := resp.StatusCode
	if !(code >= 200 && code < 300) && !(code >= 400 && code < 500) && code != 503 {
		t.Errorf("router answered HTTP %d for %s", code, resp.Request.URL.Path)
	}
	if (code == 429 || code == 503) && resp.Header.Get("Retry-After") == "" {
		t.Errorf("HTTP %d without Retry-After for %s", code, resp.Request.URL.Path)
	}
}

// fitBody builds the i-th distinct cheap fit request (distinct bounds →
// distinct opthash, same partition).
func fitBody(i int) string {
	return fmt.Sprintf(`{"scheme":%q,"compressor":%q,"training":{"fields":["P"],"steps":2,"dims":[8,8,8],"bounds":[1e-4,%g]}}`,
		harnessScheme, harnessCompressor, 1e-3*float64(i+1))
}

// submitFit posts one fit through the router; returns the job ID when
// the cluster acknowledged (202), "" otherwise. Every response must be
// well-formed either way.
func (h *harness) submitFit(t *testing.T, i int) string {
	t.Helper()
	resp, err := h.Client.Post(h.Router.Base+"/v1/fit", "application/json", strings.NewReader(fitBody(i)))
	if err != nil {
		// transport-level failure against the router itself only happens
		// when the harness killed it; the router must never hang or reset
		t.Errorf("fit %d transport error: %v", i, err)
		return ""
	}
	defer resp.Body.Close()
	checkWellFormedResp(t, resp)
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return ""
	}
	var fr struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(raw, &fr); err != nil || fr.JobID == "" {
		t.Errorf("fit %d: 202 without job_id: %s", i, raw)
		return ""
	}
	return fr.JobID
}

// predictOnce sends one prediction through the router, asserting only
// well-formedness (during failover 503 is legitimate).
func (h *harness) predictOnce(t *testing.T) {
	t.Helper()
	body := fmt.Sprintf(`{"scheme":%q,"compressor":%q,"data":{"field":"P","step":1,"dims":[8,8,8]},"options":{"pressio:abs":1e-3}}`,
		harnessScheme, harnessCompressor)
	resp, err := h.Client.Post(h.Router.Base+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("predict transport error: %v", err)
		return
	}
	defer resp.Body.Close()
	checkWellFormedResp(t, resp)
	io.Copy(io.Discard, resp.Body)
}

// waitJobDone polls a job through the router until "done". 404s and 503s
// along the way are the failover window, not failures.
func (h *harness) waitJobDone(t *testing.T, id string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	last := ""
	for time.Now().Before(deadline) {
		resp, err := h.Client.Get(h.Router.Base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("job %s poll transport error: %v", id, err)
		}
		checkWellFormedResp(t, resp)
		var jv struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && json.Unmarshal(raw, &jv) == nil {
			last = jv.Status
			if jv.Status == "done" {
				return
			}
			if jv.Status == "failed" {
				t.Fatalf("acked job %s failed: %s", id, jv.Error)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("acked job %s lost: never reached done (last status %q)", id, last)
}

// checkNoDivergence asserts every reachable node reports a zero
// divergence counter, and that no model key carries two different state
// hashes across nodes — the "no double publish with divergent bytes"
// invariant, checked both ways.
func (h *harness) checkNoDivergence(t *testing.T) {
	t.Helper()
	shas := map[string]string{} // model key → state sha
	for name, p := range h.nodes {
		var st cluster.StatusResponse
		if err := h.GetJSON(p.Base+"/v1/repl/status", &st); err != nil {
			continue // dead node
		}
		if st.Divergence != 0 {
			t.Errorf("node %s reports %d divergent publishes", name, st.Divergence)
		}
		var models []struct {
			Key      string `json:"key"`
			StateSHA string `json:"state_sha256"`
		}
		if err := h.GetJSON(p.Base+"/v1/models", &models); err != nil {
			continue
		}
		for _, m := range models {
			if prev, ok := shas[m.Key]; ok && prev != m.StateSHA {
				t.Errorf("model %s has divergent state across nodes: %s vs %s", m.Key, prev, m.StateSHA)
			}
			shas[m.Key] = m.StateSHA
		}
	}
}

// waitConverged blocks until every live node has applied every other
// live node's stream fully (per /v1/repl/status of each).
func (h *harness) waitConverged(t *testing.T, names []string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		lastSeq := map[string]uint64{}
		applied := map[string]map[string]uint64{}
		ok := true
		for _, name := range names {
			var st cluster.StatusResponse
			if err := h.GetJSON(h.nodes[name].Base+"/v1/repl/status", &st); err != nil {
				ok = false
				break
			}
			lastSeq[name] = st.LastSeq
			applied[name] = st.Applied
		}
		if ok {
			for _, a := range names {
				for _, b := range names {
					if a != b && applied[a][b] < lastSeq[b] {
						ok = false
					}
				}
			}
			if ok {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nodes %v never converged", names)
}

// wantSeededCrash waits for a node's fault plan to fire: crash rules
// exit 137.
func (h *harness) wantSeededCrash(t *testing.T, name string) {
	t.Helper()
	code, err := h.nodes[name].WaitExit(30 * time.Second)
	if err != nil {
		t.Fatalf("%v, expected a seeded crash", err)
	}
	if code != 137 {
		t.Fatalf("%s exited %d, want 137 (seeded crash)", name, code)
	}
}

func survivorsOf(h *harness, dead string) []string {
	var out []string
	for name := range h.nodes {
		if name != dead {
			out = append(out, name)
		}
	}
	return out
}

// TestClusterKillOwnerMidFit kills the partition owner with a seeded
// crash at its first model publish: fits were 202-acked and replicated,
// the owner dies mid-fit, and the survivors must finish every acked job.
func TestClusterKillOwnerMidFit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness")
	}
	h := startHarness(t, map[string]string{
		// exit 137 the instant the first trained model would be published:
		// after the fit ran, before its result is durable anywhere
		harnessOwner: "put-before crash key=model/ at=1",
	})

	var acked []string
	for i := 0; i < 3; i++ {
		if id := h.submitFit(t, i); id != "" {
			acked = append(acked, id)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no fit was acknowledged")
	}

	h.wantSeededCrash(t, harnessOwner)

	// the cluster honors every ack without the owner
	for _, id := range acked {
		h.waitJobDone(t, id, 90*time.Second)
	}
	h.predictOnce(t)
	h.checkNoDivergence(t)

	// the owner returns with no fault plan (a plain Start drops the first
	// launch's extra arguments), catches up over the shipped logs, and the
	// router reinstates it
	ctx := context.Background()
	p := h.nodes[harnessOwner]
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitHealthy(ctx, p.Base, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitLive(ctx, 3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	h.waitConverged(t, harnessNames, 60*time.Second)
	h.checkNoDivergence(t)
}

// TestClusterKillOwnerAtReplicationOffset kills the owner while it is
// serving its replication stream (seeded crash at a fixed ship offset):
// followers resume over relayed copies and every acked job completes.
func TestClusterKillOwnerAtReplicationOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness")
	}
	h := startHarness(t, map[string]string{
		// the owner dies on the 5th frame it ships — mid-replication,
		// with followers at a seeded offset into its stream
		harnessOwner: "repl-ship crash at=5",
	})

	var acked []string
	for i := 0; i < 4; i++ {
		if id := h.submitFit(t, i); id != "" {
			acked = append(acked, id)
		}
		h.predictOnce(t)
	}
	if len(acked) == 0 {
		t.Fatal("no fit was acknowledged")
	}
	h.wantSeededCrash(t, harnessOwner)
	for _, id := range acked {
		h.waitJobDone(t, id, 90*time.Second)
	}
	h.waitConverged(t, survivorsOf(h, harnessOwner), 60*time.Second)
	h.checkNoDivergence(t)
}

// TestClusterRandomizedKillSweep SIGKILLs the owner at a seeded random
// wall-clock offset while load is in flight — the unscripted complement
// to the cataloged crash points.
func TestClusterRandomizedKillSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness")
	}
	// fixed-seed xorshift: reproducible offsets without math/rand
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	h := startHarness(t, nil)

	var acked []string
	killAfter := time.Duration(50+next(250)) * time.Millisecond
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(killAfter)
		if err := h.nodes[harnessOwner].Kill(); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 6; i++ {
		if id := h.submitFit(t, i); id != "" {
			acked = append(acked, id)
		}
		h.predictOnce(t)
		time.Sleep(time.Duration(20+next(60)) * time.Millisecond)
	}
	<-killed

	if len(acked) == 0 {
		t.Fatal("no fit was acknowledged before the kill")
	}
	for _, id := range acked {
		h.waitJobDone(t, id, 90*time.Second)
	}
	h.predictOnce(t)
	h.waitConverged(t, survivorsOf(h, harnessOwner), 60*time.Second)
	h.checkNoDivergence(t)
}
