package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/vfs"
)

// replPrefix namespaces the replication layer's own store keys (applied
// watermarks). The mirror hook never ships them: they are per-node
// positions in *other* nodes' streams, meaningless anywhere else.
const replPrefix = "repl/"

// modelKeyPrefix mirrors serve's registry namespace; the apply path
// uses it to detect divergent model publishes and to keep the serving
// caches coherent.
const modelKeyPrefix = "model/"

// NodeConfig tunes one cluster member.
type NodeConfig struct {
	// Name is this node's cluster identity (must differ from every peer).
	Name string
	// Peers maps peer node names to base URLs (e.g. "http://127.0.0.1:7002").
	Peers map[string]string
	// ReplDir holds the replication logs (own stream + peer copies).
	ReplDir string
	// MinAcks is how many followers must hold a journaled fit durably
	// before the 202 ack (default 1 when there are peers, 0 otherwise).
	// Negative disables the barrier.
	MinAcks int
	// AckTimeout bounds the fit ack barrier (default 5s).
	AckTimeout time.Duration
	// PollInterval paces the replication fetch loops (default 100ms).
	PollInterval time.Duration
	// RequestTimeout bounds one replication HTTP call (default 5s).
	RequestTimeout time.Duration
	// Client performs replication HTTP calls; tests inject a
	// fault-wrapped transport (default plain http.Client).
	Client *http.Client
	// Inject scripts replication faults (OpReplShip / OpReplApply).
	Inject *faultinject.Plan
}

func (c *NodeConfig) defaults() {
	if c.MinAcks == 0 && len(c.Peers) > 0 {
		c.MinAcks = 1
	}
	if c.MinAcks < 0 {
		c.MinAcks = 0
	}
	if c.MinAcks > len(c.Peers) {
		c.MinAcks = len(c.Peers)
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
}

// Node is one replicated predictd member: it authors a replication log
// from its store's WAL mirror, pulls every peer's stream into local
// copy logs, applies shipped frames to its own store, and answers the
// replication HTTP API.
type Node struct {
	cfg    NodeConfig
	st     *store.Store
	log    *Log            // stream this node authors
	copies map[string]*Log // peer name → local copy of that peer's stream

	mu          sync.Mutex
	srv         *serve.Server
	acks        map[string]uint64 // follower → acked seq of OUR stream
	ackCh       chan struct{}     // rotated when acks advance
	applied     map[string]uint64 // stream → last seq applied to our store
	divergence  uint64
	applyErrors uint64
	lastErr     string

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewNode opens the node's replication logs, installs the store mirror
// that feeds its authored stream, and replays any shipped-but-unapplied
// copy-log suffix into the store (the crash between "frame durable in
// copy log" and "frame applied" heals here, before the registry opens).
// Call AttachServer once the serve.Server exists, then Start.
func NewNode(st *store.Store, cfg NodeConfig) (*Node, error) {
	cfg.defaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node name required")
	}
	n := &Node{
		cfg:     cfg,
		st:      st,
		copies:  map[string]*Log{},
		acks:    map[string]uint64{},
		ackCh:   make(chan struct{}),
		applied: map[string]uint64{},
		stop:    make(chan struct{}),
	}
	var err error
	n.log, err = OpenLog(cfg.ReplDir, vfs.OS, cfg.Name)
	if err != nil {
		return nil, err
	}
	for peer := range cfg.Peers {
		if peer == cfg.Name {
			return nil, fmt.Errorf("cluster: node %s listed as its own peer", cfg.Name)
		}
		n.copies[peer], err = OpenLog(cfg.ReplDir, vfs.OS, peer)
		if err != nil {
			return nil, err
		}
		n.applied[peer] = n.readApplied(peer)
		if err := n.replayCopy(peer); err != nil {
			return nil, err
		}
	}
	st.SetMirror(n.mirror)
	return n, nil
}

// AttachServer wires the serving subsystem for cache absorption and
// failover adoption.
func (n *Node) AttachServer(srv *serve.Server) {
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
}

// Start launches the replication fetch loops (one per peer stream).
func (n *Node) Start(ctx context.Context) {
	for peer := range n.cfg.Peers {
		n.wg.Add(1)
		go n.fetchLoop(ctx, peer)
	}
}

// CatchUp performs a best-effort initial sync: fetch rounds across every
// peer stream until none makes progress (or ctx expires). A node
// restarting after a crash runs this before replaying its fit journal,
// so jobs an adopter already finished — and the models it published —
// arrive as replicated state instead of being re-run from stale records.
func (n *Node) CatchUp(ctx context.Context) {
	position := func() uint64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		var sum uint64
		for _, seq := range n.applied {
			sum += seq
		}
		return sum
	}
	for {
		before := position()
		for peer := range n.cfg.Peers {
			if ctx.Err() != nil {
				return
			}
			n.fetchOnce(ctx, peer)
		}
		if position() == before || ctx.Err() != nil {
			return
		}
	}
}

// Close stops the fetch loops and closes the logs.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.log.Close()
	for _, l := range n.copies {
		l.Close()
	}
}

// mirror is the store hook: every durable local WAL frame (except the
// replication layer's own keys) becomes the next entry of this node's
// stream. It runs under the store lock after the frame is durable and
// applied, so stream order is exactly WAL order.
func (n *Node) mirror(f store.Frame) error {
	if strings.HasPrefix(f.Key, replPrefix) {
		return nil
	}
	_, err := n.log.Append(f)
	return err
}

// appliedKey is the store key of this node's durable position in a
// peer's stream.
func appliedKey(stream string) string { return replPrefix + "applied/" + stream }

func (n *Node) readApplied(stream string) uint64 {
	raw, ok, err := n.st.Get(appliedKey(stream))
	if err != nil || !ok {
		return 0
	}
	seq, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return 0
	}
	return seq
}

// replayCopy re-applies the copy-log suffix past the applied watermark:
// journal recovery over the shipped log. Store puts are idempotent, so
// at-least-once replay is safe — the same property fit-job replay
// leans on.
func (n *Node) replayCopy(stream string) error {
	l := n.copies[stream]
	from := n.applied[stream] + 1
	for {
		ents := l.EntriesFrom(from, 64)
		if len(ents) == 0 {
			return nil
		}
		for _, e := range ents {
			if err := n.applyFrame(stream, e, false); err != nil {
				return err
			}
			from = e.Seq + 1
		}
	}
}

// applyFrame validates, records, and applies one shipped entry: append
// to the copy log (CRC-checked; duplicate seqs no-op), apply to the
// store, absorb into the serving caches, then advance the durable
// watermark. A crash between any two steps re-runs the frame on
// restart; every step is idempotent.
func (n *Node) applyFrame(stream string, e Entry, absorb bool) error {
	if d := n.cfg.Inject.Fire(faultinject.OpReplApply, -1, fmt.Sprintf("%s/%d", stream, e.Seq)); d.Err != nil {
		return d.Err
	} else if d.Delay > 0 {
		select {
		case <-time.After(d.Delay):
		case <-n.stop:
			return fmt.Errorf("cluster: node stopping")
		}
	}
	if err := n.copies[stream].AppendRaw(e.Seq, e.Frame); err != nil {
		return err
	}
	f, sz, err := store.DecodeFrame(e.Frame)
	if err != nil || sz != len(e.Frame) {
		return fmt.Errorf("cluster: stream %s seq %d: corrupt frame: %v", stream, e.Seq, err)
	}
	if f.Op == store.FramePut && strings.HasPrefix(f.Key, modelKeyPrefix) {
		if old, ok, _ := n.st.Get(f.Key); ok && !serve.ModelBytesEquivalent(old, f.Value) {
			// two writers published different bytes under one opthash —
			// the invariant the single-owner routing exists to protect.
			// Last-writer-wins keeps replicas convergent; the counter
			// makes the violation loud.
			n.mu.Lock()
			n.divergence++
			n.mu.Unlock()
		}
	}
	if err := n.st.Apply(f); err != nil {
		return err
	}
	if absorb {
		n.mu.Lock()
		srv := n.srv
		n.mu.Unlock()
		if srv != nil {
			srv.Absorb(f)
		}
	}
	if err := n.st.Put(appliedKey(stream), []byte(strconv.FormatUint(e.Seq, 10))); err != nil {
		return err
	}
	n.mu.Lock()
	if e.Seq > n.applied[stream] {
		n.applied[stream] = e.Seq
	}
	n.mu.Unlock()
	return nil
}

// fetchLoop pulls one peer's stream: from the peer itself when it is
// up, else from any other peer relaying its copy of that stream — the
// catch-up path a restarted or partitioned node heals through.
func (n *Node) fetchLoop(ctx context.Context, stream string) {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.PollInterval)
	defer ticker.Stop()
	for {
		n.fetchOnce(ctx, stream)
		select {
		case <-ctx.Done():
			return
		case <-n.stop:
			return
		case <-ticker.C:
		}
	}
}

// fetchOnce tries one fetch+apply+ack round for a stream.
func (n *Node) fetchOnce(ctx context.Context, stream string) {
	n.mu.Lock()
	from := n.applied[stream] + 1
	n.mu.Unlock()

	// author first, then relays
	sources := []string{stream}
	for peer := range n.cfg.Peers {
		if peer != stream {
			sources = append(sources, peer)
		}
	}
	for _, src := range sources {
		ents, err := n.fetchEntries(ctx, src, stream, from)
		if err != nil {
			continue
		}
		progressed := false
		for _, e := range ents {
			if err := n.applyFrame(stream, e, true); err != nil {
				n.mu.Lock()
				n.applyErrors++
				n.lastErr = err.Error()
				n.mu.Unlock()
				return
			}
			progressed = true
		}
		if progressed || len(ents) == 0 {
			// ack our durable position to the author so its fit barrier
			// can release; best-effort (re-sent every round)
			n.sendAck(ctx, stream)
		}
		return
	}
}

// fetchEntries GETs entries of stream from the src peer.
func (n *Node) fetchEntries(ctx context.Context, src, stream string, from uint64) ([]Entry, error) {
	base, ok := n.cfg.Peers[src]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %s", src)
	}
	url := fmt.Sprintf("%s/v1/repl/stream?stream=%s&from=%d&max=256", base, stream, from)
	var out []Entry
	err := call(ctx, n.cfg.Client, n.cfg.RequestTimeout, http.MethodGet, url, nil, &out)
	return out, err
}

// sendAck posts our applied position on stream to its author.
func (n *Node) sendAck(ctx context.Context, stream string) {
	base, ok := n.cfg.Peers[stream]
	if !ok {
		return
	}
	n.mu.Lock()
	seq := n.applied[stream]
	n.mu.Unlock()
	call(ctx, n.cfg.Client, n.cfg.RequestTimeout, http.MethodPost, base+"/v1/repl/ack",
		ackRequest{Stream: stream, Node: n.cfg.Name, Seq: seq}, nil)
}

// Barrier blocks until MinAcks followers have durably applied
// everything this node's stream held when the barrier was taken — the
// serve.Config.AckBarrier implementation that upgrades the fit 202 from
// "survives a crash" to "survives losing this node".
func (n *Node) Barrier(ctx context.Context) error {
	need := n.cfg.MinAcks
	if need <= 0 {
		return nil
	}
	target := n.log.LastSeq()
	timer := time.NewTimer(n.cfg.AckTimeout)
	defer timer.Stop()
	for {
		n.mu.Lock()
		got := 0
		for _, seq := range n.acks {
			if seq >= target {
				got++
			}
		}
		ch := n.ackCh
		n.mu.Unlock()
		if got >= need {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return fmt.Errorf("cluster: %d/%d follower acks for seq %d within %v",
				got, need, target, n.cfg.AckTimeout)
		case <-ch:
		}
	}
}

type ackRequest struct {
	Stream string `json:"stream"`
	Node   string `json:"node"`
	Seq    uint64 `json:"seq"`
}

type adoptRequest struct {
	Node string `json:"node"`
}

// StatusResponse is the /v1/repl/status document.
type StatusResponse struct {
	Node        string            `json:"node"`
	LastSeq     uint64            `json:"last_seq"`
	Applied     map[string]uint64 `json:"applied"`
	Acks        map[string]uint64 `json:"acks"`
	Divergence  uint64            `json:"divergence"`
	ApplyErrors uint64            `json:"apply_errors"`
	LastError   string            `json:"last_error,omitempty"`
}

// Status snapshots the node's replication state.
func (n *Node) Status() StatusResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := StatusResponse{
		Node:        n.cfg.Name,
		LastSeq:     n.log.LastSeq(),
		Applied:     map[string]uint64{},
		Acks:        map[string]uint64{},
		Divergence:  n.divergence,
		ApplyErrors: n.applyErrors,
		LastError:   n.lastErr,
	}
	for k, v := range n.applied {
		st.Applied[k] = v
	}
	for k, v := range n.acks {
		st.Acks[k] = v
	}
	return st
}

// Register mounts the replication API onto mux.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/repl/stream", n.handleStream)
	mux.HandleFunc("/v1/repl/ack", n.handleAck)
	mux.HandleFunc("/v1/repl/status", n.handleStatus)
	mux.HandleFunc("/v1/repl/adopt", n.handleAdopt)
}

// streamFor resolves a stream name to the log holding it here.
func (n *Node) streamFor(name string) *Log {
	if name == n.cfg.Name {
		return n.log
	}
	return n.copies[name]
}

func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stream := q.Get("stream")
	l := n.streamFor(stream)
	if l == nil {
		writeError(w, http.StatusNotFound, "unknown stream %q", stream)
		return
	}
	from, _ := strconv.ParseUint(q.Get("from"), 10, 64)
	if from < 1 {
		from = 1
	}
	max, _ := strconv.Atoi(q.Get("max"))
	if max <= 0 || max > 1024 {
		max = 256
	}
	ents := l.EntriesFrom(from, max)
	// every served frame is a replication-ship fault point: seeded crash
	// rules here are "owner dies mid-stream at frame N"
	for i, e := range ents {
		if d := n.cfg.Inject.Fire(faultinject.OpReplShip, -1, fmt.Sprintf("%s/%d", stream, e.Seq)); d.Err != nil {
			if i == 0 {
				writeError(w, http.StatusInternalServerError, "ship fault")
				return
			}
			ents = ents[:i] // ship what precedes the fault
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if ents == nil {
		ents = []Entry{}
	}
	json.NewEncoder(w).Encode(ents)
}

func (n *Node) handleAck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ackRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad ack body")
		return
	}
	if req.Stream != n.cfg.Name {
		// an ack for a stream we merely relay is not ours to track
		w.WriteHeader(http.StatusNoContent)
		return
	}
	n.mu.Lock()
	if req.Seq > n.acks[req.Node] {
		n.acks[req.Node] = req.Seq
		close(n.ackCh)
		n.ackCh = make(chan struct{})
	}
	n.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.Status())
}

func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req adoptRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad adopt body")
		return
	}
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv == nil {
		writeError(w, http.StatusServiceUnavailable, "no server attached")
		return
	}
	adopted, err := srv.Adopt(r.Context(), req.Node)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"adopted": adopted})
}
