package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster/health"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
)

// Remote execution: predict-bench can fan observation tasks out to worker
// processes over TCP (net/rpc), the laptop-scale analogue of the paper's
// MPI deployment. A worker process runs ServeWorker; the driver lists the
// workers in Spec.RemoteWorkers and the queue's locality scheduling then
// operates across processes: each queue worker slot is pinned to one
// remote endpoint, so tasks sharing a DataKey still land on the same
// process, whose WorkerService caches the buffer and what is memoised on it.
//
// The pool is hardened against the failure shapes of a real deployment:
// dials and calls carry timeouts (a dead or hung endpoint cannot block a
// worker slot indefinitely), every endpoint sits behind a circuit
// breaker (closed → open after consecutive failures, open → half-open
// after a cooldown, half-open admits one probe), a background Ping
// health probe drives recovery detection, and worker-slot pins FAIL OVER:
// when a slot's pinned endpoint trips its breaker the slot re-pins to
// the next healthy endpoint, so one dead endpoint degrades capacity
// instead of permanently poisoning every slot mapped to it.

// ObserveArgs is the RPC request for one observation cell.
type ObserveArgs struct {
	Dims        []int
	Replicates  int
	Field       string
	Step        int
	Bound       float64
	Compressor  string
	MetricNames []string
}

// WorkerService is the RPC service workers expose. It keeps a cell cache
// for the grid it is asked about, so the cells of a buffer that locality
// sends here load it once; another grid gets a fresh cache.
type WorkerService struct {
	eval core.Evaluator

	mu    sync.Mutex
	dims  []int
	cache *dataset.TieredCache
}

func (w *WorkerService) cacheFor(dims []int) (*dataset.TieredCache, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cache == nil || !slices.Equal(w.dims, dims) {
		// a worker cannot see how many driver slots are pinned to it:
		// it budgets for a driver's default Workers
		cache, err := newCellCache(defaultWorkers, dims)
		if err != nil {
			return nil, err
		}
		w.cache, w.dims = cache, slices.Clone(dims)
	}
	return w.cache, nil
}

// Observe computes one cell on the worker.
func (w *WorkerService) Observe(args ObserveArgs, reply *Observation) error {
	args.Replicates = max(args.Replicates, 1)
	cache, err := w.cacheFor(args.Dims)
	if err != nil {
		return err
	}
	//lint:ignore pressiovet/ctxflow net/rpc hands a call no context: the driver's call timeout bounds it
	ob, err := observe(context.Background(), cache, &w.eval, args)
	if err != nil {
		return err
	}
	*reply = *ob
	return nil
}

// Ping lets drivers health-check a worker.
func (*WorkerService) Ping(_ struct{}, reply *string) error {
	*reply = "ok"
	return nil
}

// ServeWorker starts an RPC worker on addr (e.g. ":7777" or
// "127.0.0.1:0") and returns the listener; close it to stop. Connections
// are served on background goroutines.
func ServeWorker(addr string) (net.Listener, error) {
	return serveWorker(addr, &WorkerService{})
}

func serveWorker(addr string, svc *WorkerService) (net.Listener, error) {
	srv := rpc.NewServer()
	if err := srv.Register(svc); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln, nil
}

// Circuit-breaker states (shared with the cluster router via
// internal/cluster/health).
const (
	breakerClosed   = health.StateClosed
	breakerOpen     = health.StateOpen
	breakerHalfOpen = health.StateHalfOpen
)

// ErrAllEndpointsDown is wrapped into call errors when every endpoint's
// breaker is open.
var ErrAllEndpointsDown = errors.New("bench: all remote endpoints unavailable")

// poolConfig tunes the hardened remote pool.
type poolConfig struct {
	// DialTimeout bounds connection establishment (default 3s).
	DialTimeout time.Duration
	// CallTimeout bounds one RPC round trip (default 2m).
	CallTimeout time.Duration
	// PingInterval is the background health-probe period (default 2s;
	// negative disables probing).
	PingInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens an
	// endpoint's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// Inject scripts dial/call faults (tests only).
	Inject *faultinject.Plan
	// Clock supplies the time used for breaker cooldowns and probe
	// scheduling; tests replace it to replay fault schedules
	// deterministically (default time.Now).
	Clock func() time.Time
}

func (c *poolConfig) defaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Minute
	}
	if c.PingInterval == 0 {
		c.PingInterval = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// EndpointStats is the per-endpoint slice of PoolStats.
type EndpointStats struct {
	Addr        string
	Calls       int // RPCs attempted (excluding health probes)
	Failures    int // RPCs or dials that failed
	State       string
	Transitions []string // breaker transitions, e.g. "closed→open"
}

// PoolStats summarizes the remote pool for observability.
type PoolStats struct {
	Endpoints []EndpointStats
	Repins    int // worker slots moved off an unavailable endpoint
}

type endpoint struct {
	addr   string
	client *rpc.Client
	br     *health.Breaker // guarded by the pool mutex

	calls    int
	failures int
}

// remotePool holds one persistent RPC client per endpoint behind a
// circuit breaker, with failover re-pinning of queue worker slots.
type remotePool struct {
	mu   sync.Mutex
	cfg  poolConfig
	eps  []*endpoint
	pins map[int]int // queue worker slot → endpoint index
	reps int         // re-pin count

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newRemotePool(endpoints []string, cfg poolConfig) *remotePool {
	cfg.defaults()
	p := &remotePool{
		cfg:  cfg,
		pins: make(map[int]int),
		stop: make(chan struct{}),
	}
	for _, addr := range endpoints {
		p.eps = append(p.eps, &endpoint{
			addr: addr,
			br:   health.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		})
	}
	if cfg.PingInterval > 0 {
		p.wg.Add(1)
		go p.pingLoop()
	}
	return p
}

// acquire picks the endpoint for a queue worker slot: the slot's current
// pin when available, else the next available endpoint scanning round-
// robin from it (failover re-pinning). When every breaker is open the
// pinned endpoint is returned with ok=false so the caller fails fast.
func (p *remotePool) acquire(worker int) (*endpoint, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.eps)
	pin, pinned := p.pins[worker]
	if !pinned {
		pin = worker % n
	}
	for i := 0; i < n; i++ {
		idx := (pin + i) % n
		ep := p.eps[idx]
		if !ep.br.Available() {
			continue
		}
		if ep.br.State() == breakerHalfOpen {
			ep.br.MarkProbing()
		}
		if pinned && idx != pin {
			p.reps++
		}
		p.pins[worker] = idx
		return ep, true
	}
	return p.eps[pin], false
}

// onResult folds one call outcome into the breaker.
func (p *remotePool) onResult(ep *endpoint, err error, probe bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !probe {
		ep.calls++
		if err != nil {
			ep.failures++
		}
	}
	ep.br.OnResult(err)
}

// clientFor returns the cached client for ep, dialing with a timeout if
// needed.
func (p *remotePool) clientFor(ep *endpoint) (*rpc.Client, error) {
	p.mu.Lock()
	if c := ep.client; c != nil {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	if d := p.cfg.Inject.Fire(faultinject.OpDial, -1, ep.addr); d.Err != nil {
		return nil, fmt.Errorf("bench: worker %s: %w", ep.addr, d.Err)
	}
	conn, err := net.DialTimeout("tcp", ep.addr, p.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("bench: worker %s: %w", ep.addr, err)
	}
	c := rpc.NewClient(conn)
	p.mu.Lock()
	defer p.mu.Unlock()
	if ep.client != nil {
		// another goroutine won the dial race
		c.Close()
		return ep.client, nil
	}
	ep.client = c
	return c, nil
}

// invalidate drops a cached client after an RPC failure so the next
// attempt re-dials (the worker may have restarted).
func (p *remotePool) invalidate(ep *endpoint) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ep.client != nil {
		ep.client.Close()
		ep.client = nil
	}
}

// call performs one RPC against ep with the pool's call timeout; on
// timeout the connection is torn down so the abandoned call cannot
// poison later ones.
func (p *remotePool) call(ep *endpoint, method string, args, reply any, timeout time.Duration) error {
	client, err := p.clientFor(ep)
	if err != nil {
		return err
	}
	done := client.Go(method, args, reply, make(chan *rpc.Call, 1)).Done
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case c := <-done:
		if c.Error != nil {
			p.invalidate(ep)
			return fmt.Errorf("bench: worker %s: %w", ep.addr, c.Error)
		}
		return nil
	case <-timer.C:
		p.invalidate(ep)
		return fmt.Errorf("bench: worker %s: %s timed out after %v", ep.addr, method, timeout)
	}
}

// pingLoop probes endpoints in the background so a dead endpoint trips
// its breaker before tasks pile onto it, and a recovered endpoint closes
// its breaker without waiting for live traffic to probe it.
func (p *remotePool) pingLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.PingInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		p.mu.Lock()
		eps := append([]*endpoint(nil), p.eps...)
		var probes []*endpoint
		for _, ep := range eps {
			// probe everything except open breakers still cooling down
			if ep.br.Available() {
				if ep.br.State() == breakerHalfOpen {
					ep.br.MarkProbing()
				}
				probes = append(probes, ep)
			}
		}
		p.mu.Unlock()
		for _, ep := range probes {
			var reply string
			err := p.call(ep, "WorkerService.Ping", struct{}{}, &reply, p.cfg.DialTimeout)
			p.onResult(ep, err, true)
		}
	}
}

func (p *remotePool) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ep := range p.eps {
		if ep.client != nil {
			ep.client.Close()
			ep.client = nil
		}
	}
}

// stats snapshots the pool's breaker and traffic state.
func (p *remotePool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{Repins: p.reps}
	for _, ep := range p.eps {
		s.Endpoints = append(s.Endpoints, EndpointStats{
			Addr:        ep.addr,
			Calls:       ep.calls,
			Failures:    ep.failures,
			State:       ep.br.State(),
			Transitions: ep.br.Transitions(),
		})
	}
	return s
}

// observeRemote runs one cell on the endpoint currently pinned to the
// queue worker slot, failing over to a healthy endpoint when the pin's
// breaker is open.
func (p *remotePool) observeRemote(worker int, args ObserveArgs) (*Observation, error) {
	ep, ok := p.acquire(worker)
	if !ok {
		return nil, fmt.Errorf("%w (worker slot %d pinned to %s)", ErrAllEndpointsDown, worker, ep.addr)
	}
	probe := false
	if d := p.cfg.Inject.Fire(faultinject.OpCall, worker, ep.addr); d.Err != nil {
		if errors.Is(d.Err, faultinject.ErrReset) {
			p.invalidate(ep)
		}
		err := fmt.Errorf("bench: worker %s: %w", ep.addr, d.Err)
		p.onResult(ep, err, probe)
		return nil, err
	} else if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	var reply Observation
	err := p.call(ep, "WorkerService.Observe", args, &reply, p.cfg.CallTimeout)
	p.onResult(ep, err, probe)
	if err != nil {
		return nil, err
	}
	return &reply, nil
}
