package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/store"
)

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
	// MinAcks is how many followers must hold a journaled fit durably
	// before the 202 ack (default 1 when there are peers, 0 otherwise).
	// Negative disables the barrier.
	MinAcks int
	// AckTimeout bounds the fit ack barrier (default 5s).
	AckTimeout time.Duration
	// PollInterval is how long a fetch loop sleeps after a round that
	// applied nothing (default 100ms).
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
	c.MinAcks = min(max(c.MinAcks, 0), len(c.Peers))
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

// Node is one replicated predictd member. Its store's WAL is its one
// durable log: the store's Local stream is the stream this node authors,
// and every peer's stream is applied to the store at the seqs it
// carries. The node pulls those streams, serves its own and relays the
// rest straight from the WAL, and answers the replication HTTP API.
type Node struct {
	cfg NodeConfig
	log *store.Store

	drained sync.WaitGroup // each fetch loop is Done after its first idle round

	mu          sync.Mutex
	srv         *serve.Server
	acks        map[string]uint64 // follower → acked seq of OUR stream
	ackCh       chan struct{}     // rotated when acks advance
	divergence  uint64
	applyErrors uint64
	lastErr     string

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewNode makes st the node's log; its positions in every stream come
// from st. Call AttachServer once the serve.Server exists, then Start.
func NewNode(st *store.Store, cfg NodeConfig) (*Node, error) {
	cfg.defaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: node name required")
	}
	if _, ok := cfg.Peers[cfg.Name]; ok {
		return nil, fmt.Errorf("cluster: node %s listed as its own peer", cfg.Name)
	}
	return &Node{
		cfg:   cfg,
		log:   st,
		acks:  map[string]uint64{},
		ackCh: make(chan struct{}),
		stop:  make(chan struct{}),
	}, nil
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
	n.drained.Add(len(n.cfg.Peers))
	for peer := range n.cfg.Peers {
		n.wg.Add(1)
		go n.fetchLoop(ctx, peer)
	}
}

// CatchUp waits, after Start, until every peer stream's fetch loop has
// drained once — run a round that applied nothing, because it is caught
// up or no source answered — or ctx ends. A node restarting after a
// crash runs this before replaying its fit journal, so jobs an adopter
// already finished — and the models it published — arrive as replicated
// state instead of being re-run from stale records.
func (n *Node) CatchUp(ctx context.Context) {
	done := make(chan struct{})
	go func() { n.drained.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// Close stops the fetch loops. The store stays open: it is the
// caller's.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// applyFrame validates one shipped entry and writes it to the store as
// entry e.Seq of stream, then absorbs it into the attached server's
// caches. The frame and the position it moves the node to are one WAL
// record, so a crash leaves the entry either wholly applied or not at
// all; an entry the store already holds is skipped.
func (n *Node) applyFrame(stream string, e Entry) error {
	if d := n.cfg.Inject.Fire(faultinject.OpReplApply, -1, fmt.Sprintf("%s/%d", stream, e.Seq)); d.Err != nil {
		return d.Err
	} else if d.Delay > 0 {
		select {
		case <-time.After(d.Delay):
		case <-n.stop:
			return fmt.Errorf("cluster: node stopping")
		}
	}
	if e.Seq <= n.log.Seq(stream) {
		return nil // a resumed fetch re-sends what the store holds
	}
	f, sz, err := store.DecodeFrame(e.Frame)
	if err != nil || sz != len(e.Frame) {
		return fmt.Errorf("cluster: stream %s seq %d: corrupt frame rejected (%v)", stream, e.Seq, err)
	}
	if f.Op == store.FramePut && strings.HasPrefix(f.Key, modelKeyPrefix) {
		if old, ok, _ := n.log.Get(f.Key); ok && !serve.ModelBytesEquivalent(old, f.Value) {
			// two writers published different bytes under one opthash —
			// the invariant the single-owner routing exists to protect.
			// Last-writer-wins keeps replicas convergent; the counter
			// makes the violation loud.
			n.mu.Lock()
			n.divergence++
			n.mu.Unlock()
		}
	}
	if err := n.log.Apply(stream, e.Seq, e.Frame); err != nil {
		return err
	}
	n.mu.Lock()
	srv := n.srv
	n.mu.Unlock()
	if srv != nil {
		srv.Absorb(f)
	}
	return nil
}

// fetchLoop pulls one peer's stream: from the peer itself when it is
// up, else from any other peer relaying that stream from its WAL — the
// catch-up path a restarted or partitioned node heals through. A round
// that applied entries is followed at once by the next fetch, which is
// also the ack of what it applied; only a round that applied nothing
// sleeps PollInterval, and the first such round counts as drained.
func (n *Node) fetchLoop(ctx context.Context, stream string) {
	defer n.wg.Done()
	drained := sync.OnceFunc(n.drained.Done)
	defer drained()
	for {
		pause := time.Duration(0)
		if n.fetchOnce(ctx, stream) == 0 {
			drained()
			pause = n.cfg.PollInterval
		}
		select {
		case <-ctx.Done():
			return
		case <-n.stop:
			return
		case <-time.After(pause):
		}
	}
}

// fetchOnce runs one fetch+apply round for a stream and returns how many
// entries it applied.
func (n *Node) fetchOnce(ctx context.Context, stream string) int {
	from := n.log.Seq(stream) + 1

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
		for i, e := range ents {
			if err := n.applyFrame(stream, e); err != nil {
				n.mu.Lock()
				n.applyErrors++
				n.lastErr = err.Error()
				n.mu.Unlock()
				return i
			}
		}
		return len(ents)
	}
	return 0
}

// fetchEntries GETs entries of stream from the src peer. The request
// names this node, so a fetch from the stream's author is also this
// node's ack of entries from-1 and before: they are durable here.
func (n *Node) fetchEntries(ctx context.Context, src, stream string, from uint64) ([]Entry, error) {
	base, ok := n.cfg.Peers[src]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %s", src)
	}
	url := fmt.Sprintf("%s/v1/repl/stream?stream=%s&from=%d&max=256&node=%s", base, stream, from, n.cfg.Name)
	var out []Entry
	err := call(ctx, n.cfg.Client, n.cfg.RequestTimeout, http.MethodGet, url, nil, &out)
	return out, err
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

// Entry is one shipped stream entry.
type Entry struct {
	Seq   uint64 `json:"seq"`
	Frame []byte `json:"frame"` // store CRC-framed record (base64 in JSON)
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
		Acks:        maps.Clone(n.acks),
		Divergence:  n.divergence,
		ApplyErrors: n.applyErrors,
		LastError:   n.lastErr,
	}
	for peer := range n.cfg.Peers {
		st.Applied[peer] = n.log.Seq(peer)
	}
	return st
}

// Register mounts the replication API onto mux.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/repl/stream", n.handleStream)
	mux.HandleFunc("/v1/repl/status", n.handleStatus)
	mux.HandleFunc("/v1/repl/adopt", n.handleAdopt)
}

func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, _ := strconv.ParseUint(q.Get("from"), 10, 64)
	from = max(from, 1)
	stream := q.Get("stream")
	local := stream // the store's name for the stream
	if stream == n.cfg.Name {
		local = store.Local
		n.ack(q.Get("node"), from-1)
	} else if _, ok := n.cfg.Peers[stream]; !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", stream)
		return
	}
	limit, _ := strconv.Atoi(q.Get("max"))
	if limit <= 0 || limit > 1024 {
		limit = 256
	}
	frames, err := n.log.Entries(local, from, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ents := make([]Entry, 0, len(frames))
	for i, f := range frames {
		// every served frame is a replication-ship fault point: seeded
		// crash rules here are "owner dies mid-stream at frame N"; what
		// precedes the fault is shipped
		seq := from + uint64(i)
		if d := n.cfg.Inject.Fire(faultinject.OpReplShip, -1, fmt.Sprintf("%s/%d", stream, seq)); d.Err != nil {
			break
		}
		ents = append(ents, Entry{Seq: seq, Frame: f})
	}
	if len(frames) > 0 && len(ents) == 0 {
		writeError(w, http.StatusInternalServerError, "ship fault")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ents)
}

// ack records that follower holds our stream up to seq: its fetch from
// seq+1 says so. Only a configured peer counts, and never past what this
// node has written, so outside input can neither grow acks nor release
// a Barrier.
func (n *Node) ack(follower string, seq uint64) {
	if _, ok := n.cfg.Peers[follower]; !ok {
		return
	}
	seq = min(seq, n.log.LastSeq())
	n.mu.Lock()
	defer n.mu.Unlock()
	if seq > n.acks[follower] {
		close(n.ackCh)
		n.ackCh = make(chan struct{})
	}
	n.acks[follower] = seq
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
