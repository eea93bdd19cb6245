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

// Node is one replicated predictd member. Its store's WAL is its one
// durable log: the store's Local stream is the stream this node authors,
// and every peer's stream is applied to the store at the seqs it
// carries. The node pulls those streams, serves its own and relays the
// rest straight from the WAL, and answers the replication HTTP API.
type Node struct {
	cfg NodeConfig
	log *store.Store

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
		var sum uint64
		for peer := range n.cfg.Peers {
			sum += n.log.Seq(peer)
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

// Close stops the fetch loops. The store stays open: it is the
// caller's.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// applyFrame validates one shipped entry and writes it to the store as
// entry e.Seq of stream, then absorbs it into the serving caches. The
// frame and the position it moves the node to are one WAL record, so a
// crash leaves the entry either wholly applied or not at all; an entry
// the store already holds is skipped.
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
	if absorb {
		n.mu.Lock()
		srv := n.srv
		n.mu.Unlock()
		if srv != nil {
			srv.Absorb(f)
		}
	}
	return nil
}

// fetchLoop pulls one peer's stream: from the peer itself when it is
// up, else from any other peer relaying that stream from its WAL — the
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
	seq := n.log.Seq(stream)
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

// Entry is one shipped stream entry.
type Entry struct {
	Seq   uint64 `json:"seq"`
	Frame []byte `json:"frame"` // store CRC-framed record (base64 in JSON)
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
	for peer := range n.cfg.Peers {
		st.Applied[peer] = n.log.Seq(peer)
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

func (n *Node) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stream := q.Get("stream")
	local := stream // the store's name for the stream
	if stream == n.cfg.Name {
		local = store.Local
	} else if _, ok := n.cfg.Peers[stream]; !ok {
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
	frames, err := n.log.Entries(local, from, max)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ents := make([]Entry, len(frames))
	for i, f := range frames {
		ents[i] = Entry{Seq: from + uint64(i), Frame: f}
	}
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
