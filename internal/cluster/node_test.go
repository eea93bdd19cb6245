package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

type tnode struct {
	name string
	dir  string // everything the node writes lives under it
	st   *store.Store
	n    *Node
	mux  *http.ServeMux
	srv  *httptest.Server
}

// startCluster brings up an in-process cluster: real stores, real
// replication logs, real HTTP between members — only the listeners are
// httptest.
func startCluster(t *testing.T, names []string, tweak func(name string, cfg *NodeConfig)) map[string]*tnode {
	t.Helper()
	nodes := map[string]*tnode{}
	urls := map[string]string{}
	for _, name := range names {
		mux := http.NewServeMux()
		nodes[name] = &tnode{name: name, mux: mux, srv: httptest.NewServer(mux)}
		urls[name] = nodes[name].srv.URL
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for _, name := range names {
		tn := nodes[name]
		dir := t.TempDir()
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		peers := map[string]string{}
		for _, o := range names {
			if o != name {
				peers[o] = urls[o]
			}
		}
		cfg := NodeConfig{
			Name: name, Peers: peers,
			PollInterval: 5 * time.Millisecond, AckTimeout: 2 * time.Second,
			RequestTimeout: time.Second,
		}
		if tweak != nil {
			tweak(name, &cfg)
		}
		n, err := NewNode(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Register(tn.mux)
		n.Start(ctx)
		tn.dir, tn.st, tn.n = dir, st, n
		t.Cleanup(func() { tn.srv.Close(); n.Close(); st.Close() })
	}
	return nodes
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicationConvergence(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2", "n3"}, nil)

	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("model/s/c/h%d", i)
		if err := nodes["n1"].st.Put(k, []byte(fmt.Sprintf("bytes-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes["n1"].st.Delete("model/s/c/h0"); err != nil {
		t.Fatal(err)
	}

	for _, follower := range []string{"n2", "n3"} {
		f := nodes[follower]
		waitFor(t, follower+" convergence", func() bool {
			return f.n.Status().Applied["n1"] == nodes["n1"].n.log.LastSeq()
		})
		if v, ok, _ := f.st.Get("model/s/c/h3"); !ok || string(v) != "bytes-3" {
			t.Errorf("%s: replicated value = %q %v", follower, v, ok)
		}
		if _, ok, _ := f.st.Get("model/s/c/h0"); ok {
			t.Errorf("%s: replicated delete did not land", follower)
		}
		if st := f.n.Status(); st.Divergence != 0 || st.ApplyErrors != 0 {
			t.Errorf("%s status = %+v", follower, st)
		}
	}
}

// TestReplErrorsAreJSON: the cluster's own error replies are JSON an
// encoding/json client can read, an unknown stream's name included.
func TestReplErrorsAreJSON(t *testing.T) {
	nodes := startCluster(t, []string{"n1"}, nil)
	resp, err := http.Get(nodes["n1"].srv.URL + "/v1/repl/stream?stream=nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("body is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Content-Type") != "application/json" ||
		!strings.Contains(body.Error, "nope") {
		t.Errorf("unknown stream: %d %q, error %q; want 404 application/json naming nope",
			resp.StatusCode, resp.Header.Get("Content-Type"), body.Error)
	}
}

func TestBarrierReleasesOnFollowerAck(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2"}, nil)
	if err := nodes["n1"].st.Put("model/s/c/h", []byte("m")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := nodes["n1"].n.Barrier(ctx); err != nil {
		t.Fatalf("barrier with a live follower: %v", err)
	}
	if seq := nodes["n1"].n.Status().Acks["n2"]; seq < 1 {
		t.Errorf("n1 saw ack %d from n2", seq)
	}
}

func TestBarrierTimesOutWithoutFollowers(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	n, err := NewNode(st, NodeConfig{
		Name: "n1", Peers: map[string]string{"n2": dead.URL},
		MinAcks: 1, AckTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := st.Put("model/s/c/h", []byte("m")); err != nil {
		t.Fatal(err)
	}
	err = n.Barrier(context.Background())
	if err == nil || !strings.Contains(err.Error(), "0/1 follower acks") {
		t.Fatalf("barrier without followers = %v", err)
	}
}

func TestDivergenceCounterFiresOnConflictingPublish(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2"}, nil)
	if err := nodes["n1"].st.Put("model/s/c/h", []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "n2 applied n1's publish", func() bool {
		return nodes["n2"].n.Status().Applied["n1"] == 1
	})
	// a second writer publishing different bytes under the same opthash —
	// the violation single-owner routing exists to prevent
	if err := nodes["n2"].st.Put("model/s/c/h", []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "n1 applied the conflicting publish", func() bool {
		return nodes["n1"].n.Status().Applied["n2"] == 1
	})
	if d := nodes["n1"].n.Status().Divergence; d != 1 {
		t.Errorf("n1 divergence = %d, want 1", d)
	}
	// convergence still holds: last writer wins everywhere
	if v, _, _ := nodes["n1"].st.Get("model/s/c/h"); string(v) != "bbb" {
		t.Errorf("n1 value = %q", v)
	}
}

func TestRelayServesDeadAuthorsStream(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2"}, nil)
	for i := 0; i < 3; i++ {
		if err := nodes["n1"].st.Put(fmt.Sprintf("model/s/c/h%d", i), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "n2 caught up", func() bool {
		return nodes["n2"].n.Status().Applied["n1"] == 3
	})

	// the author dies and the relayer restarts from its store alone; a
	// newcomer must still be able to replay n1's stream by pulling it
	// from n2's WAL (the relay path)
	nodes["n1"].srv.Close()
	old := nodes["n2"]
	old.srv.Close()
	old.n.Close()
	old.st.Close()
	st2, err := store.Open(filepath.Join(old.dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	n2, err := NewNode(st2, NodeConfig{
		Name: "n2", Peers: map[string]string{"n1": nodes["n1"].srv.URL}, MinAcks: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	mux := http.NewServeMux()
	n2.Register(mux)
	srv2 := httptest.NewServer(mux)
	defer srv2.Close()

	dir := t.TempDir()
	st3, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	n3, err := NewNode(st3, NodeConfig{
		Name: "n3",
		Peers: map[string]string{
			"n1": nodes["n1"].srv.URL, // dead
			"n2": srv2.URL,
		},
		MinAcks:      -1,
		PollInterval: 5 * time.Millisecond, RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n3.Start(ctx)

	waitFor(t, "n3 relay catch-up", func() bool {
		return n3.Status().Applied["n1"] == 3
	})
	if v, ok, _ := st3.Get("model/s/c/h2"); !ok || string(v) != "m" {
		t.Errorf("relayed value = %q %v", v, ok)
	}
}

func TestAppliedWatermarkSurvivesRestart(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2"}, nil)
	for i := 0; i < 3; i++ {
		if err := nodes["n1"].st.Put(fmt.Sprintf("model/s/c/h%d", i), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	n2 := nodes["n2"]
	waitFor(t, "n2 caught up", func() bool { return n2.n.Status().Applied["n1"] == 3 })
	n2.n.Close()

	// reopen over the same store + repl dir with the author unreachable:
	// the durable watermark alone must restore the position
	nodes["n1"].srv.Close()
	reopened, err := NewNode(n2.st, NodeConfig{
		Name: "n2", Peers: map[string]string{"n1": nodes["n1"].srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Status().Applied["n1"]; got != 3 {
		t.Errorf("restored watermark = %d, want 3", got)
	}
}

func TestApplyRejectsCorruptShippedFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n, err := NewNode(st, NodeConfig{
		Name: "n2", Peers: map[string]string{"n1": "http://127.0.0.1:1"},
		MinAcks: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	bad := store.EncodeFrame(store.Frame{Op: store.FramePut, Key: "model/s/c/h", Value: []byte("m")})
	bad[len(bad)-1] ^= 0x08
	err = n.applyFrame("n1", Entry{Seq: 1, Frame: bad}, false)
	if err == nil || !strings.Contains(err.Error(), "corrupt frame rejected") {
		t.Fatalf("corrupt shipped frame applied: %v", err)
	}
	if _, ok, _ := st.Get("model/s/c/h"); ok {
		t.Error("corrupt frame reached the store")
	}
	if n.Status().Applied["n1"] != 0 {
		t.Error("corrupt frame advanced the watermark")
	}
}

func TestConvergenceThroughTransientPartition(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2"}, func(name string, cfg *NodeConfig) {
		if name == "n2" {
			// first 10 HTTP calls from n2 hit a partition, then it heals
			plan := faultinject.New(3, faultinject.Rule{
				Op: faultinject.OpHTTP, Kind: faultinject.KindPartition,
				Worker: -1, Count: 10,
			})
			cfg.Client = &http.Client{Transport: &faultinject.RoundTripper{Plan: plan}}
		}
	})
	if err := nodes["n1"].st.Put("model/s/c/h", []byte("m")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "convergence after partition heals", func() bool {
		return nodes["n2"].n.Status().Applied["n1"] == 1
	})
}

// TestNodeHoldsOneLog: a replicated write costs each node one durable
// log. After 2 000 overwrites of a ~10 KB live set on n1, every node's
// directory holds only the store's wal.log and snapshot.db, and no
// second log: its bytes on disk stay within 1.2 x its wal.log.
func TestNodeHoldsOneLog(t *testing.T) {
	nodes := startCluster(t, []string{"n1", "n2", "n3"}, nil)
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 2000; i++ {
		if err := nodes["n1"].st.Put(fmt.Sprintf("model/s/c/h%d", i%10), val); err != nil {
			t.Fatal(err)
		}
	}
	last := nodes["n1"].n.Status().LastSeq
	deadline := time.Now().Add(time.Minute)
	for _, f := range []string{"n2", "n3"} {
		for nodes[f].n.Status().Applied["n1"] < last {
			if time.Now().After(deadline) {
				t.Fatalf("%s never caught up to seq %d", f, last)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, name := range []string{"n1", "n2", "n3"} {
		var total, wal int64
		err := filepath.Walk(nodes[name].dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			switch info.Name() {
			case "wal.log":
				wal += info.Size()
			case "snapshot.db":
			default:
				t.Errorf("%s holds %s besides its store", name, path)
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if float64(total) > 1.2*float64(wal) {
			t.Errorf("%s holds %d bytes on disk for a %d-byte wal.log (%.2fx)",
				name, total, wal, float64(total)/float64(wal))
		}
	}
}
