// Command predictd is the online prediction-serving daemon: it exposes
// the internal/serve subsystem — model registry, opthash-keyed result
// cache, and bounded worker pools — over an HTTP JSON API.
//
// Usage:
//
//	predictd -addr :8347 -store ./predictd-models
//	predictd -workers 8 -queue 128 -cache 4096 -deadline 10s
//	predictd -opts "pressio:abs=1e-4,khan:sample_fraction=0.05"
//
//	# 3-node replicated cluster behind a router
//	predictd -addr :7001 -store n1 -node n1 -peers "n2=http://127.0.0.1:7002,n3=http://127.0.0.1:7003"
//	predictd -addr :7002 -store n2 -node n2 -peers "n1=http://127.0.0.1:7001,n3=http://127.0.0.1:7003"
//	predictd -addr :7003 -store n3 -node n3 -peers "n1=http://127.0.0.1:7001,n2=http://127.0.0.1:7002"
//	predictd -addr :7000 -router -members "n1=http://127.0.0.1:7001,n2=http://127.0.0.1:7002,n3=http://127.0.0.1:7003"
//
// Endpoints:
//
//	POST /v1/predict     features or data coordinates -> predicted metric
//	POST /v1/predict/batch  columnar JSON batch -> one result per input
//	POST /v1/fit         async training job -> {"job_id": ...}
//	GET  /v1/jobs/{id}   job status
//	GET  /v1/models      registry listing
//	POST /v1/invalidate  predictors:invalidate-driven eviction
//	GET  /healthz        liveness (503 while draining or replaying the journal)
//	GET  /statz          counters and latency quantiles
//	GET  /v1/repl/*      replication stream/status/adopt (cluster mode)
//
// On startup the daemon replays the durable fit-job journal in the
// background: interrupted jobs are re-enqueued, and /healthz answers 503
// until the replay completes. `predictd -fsck` runs storecheck over the
// store directory instead of serving: it validates record CRCs, truncates
// a torn WAL tail, sweeps stale compact temps, prints the report, and
// exits (non-zero if the store is corrupt beyond safe repair).
//
// SIGTERM/SIGINT drain gracefully: the listener stops, in-flight
// predictions and training jobs finish, and the store is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/pressio"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		storeDir   = flag.String("store", "predictd-models", "model registry directory")
		workers    = flag.Int("workers", 4, "predict worker pool size")
		queue      = flag.Int("queue", 64, "predict queue depth before 429s")
		cacheSize  = flag.Int("cache", 1024, "result cache capacity")
		deadline   = flag.Duration("deadline", 30*time.Second, "per-request compute deadline")
		fitWorkers = flag.Int("fit-workers", 1, "training worker pool size")
		fitQueue   = flag.Int("fit-queue", 8, "training queue depth")
		jobTTL     = flag.Duration("job-ttl", time.Hour, "how long finished fit jobs stay queryable")
		jobRetain  = flag.Int("job-retain", 256, "max finished fit jobs retained")
		fsync      = flag.Bool("fsync", true, "fsync the store WAL after every append")
		dataCache  = flag.Int64("data-cache-bytes", 0, "tiered dataset cache memory budget (0 = 128MiB default)")
		dataSpill  = flag.String("data-spill", "", "dataset cache spill directory: every loaded cell is written there and held resident as a read-only mapping of its file, so RSS counts only the pages read (empty disables the disk tier: resident cells are then sealed anonymous mappings). Either way the Go heap holds no resident cell, and at most -data-cache-bytes are mapped in all")
		fsck       = flag.Bool("fsck", false, "run storecheck on the store directory, repair what is safe, and exit")
		optsFlag   = flag.String("opts", "", "default options merged under every request, key=value[,key=value...]")

		nodeName     = flag.String("node", "", "cluster node name (enables replicated mode; requires -peers)")
		peersFlag    = flag.String("peers", "", "cluster peers, name=url[,name=url...]")
		minAcks      = flag.Int("min-acks", 0, "follower acks required before a fit 202 (default 1 with peers; -1 disables)")
		ackTimeout   = flag.Duration("ack-timeout", 5*time.Second, "fit replication-barrier timeout")
		pollInterval = flag.Duration("poll-interval", 100*time.Millisecond, "replication fetch interval")
		_            = flag.String("repl-dir", "", "ignored: a node's one durable log is its -store WAL, which serves every replication stream (accepted so existing command lines still start)")

		routerMode    = flag.Bool("router", false, "run as the stateless cluster router (requires -members)")
		membersFlag   = flag.String("members", "", "router members, name=url[,name=url...]")
		probeInterval = flag.Duration("probe-interval", 200*time.Millisecond, "router health-probe interval")
		replicas      = flag.Int("replicas", 0, "replicas per partition (default: all members)")

		readyFile = flag.String("ready-file", "", "write the bound listen address here once the listener is up")
		faultPlan = flag.String("fault-plan", "", "fault-injection plan (testing only; crash rules exit 137)")
		faultSeed = flag.Uint64("fault-seed", 1, "fault-plan RNG seed")
	)
	flag.Parse()
	if *fsck {
		rep, err := store.Fsck(*storeDir, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "predictd:", err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		return
	}

	var plan *faultinject.Plan
	if *faultPlan != "" {
		var err error
		plan, err = faultinject.Parse(*faultSeed, *faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "predictd:", err)
			os.Exit(1)
		}
		// a scripted crash is real process death: the cluster harness
		// uses this as deterministic kill -9 at an exact operation
		plan.SetCrashHook(func() { os.Exit(137) })
	}

	var err error
	if *routerMode {
		err = runRouter(*addr, *membersFlag, *readyFile, cluster.RouterConfig{
			ProbeInterval: *probeInterval,
			Replicas:      *replicas,
		}, plan)
	} else {
		err = run(runConfig{
			addr: *addr, storeDir: *storeDir, optsFlag: *optsFlag, fsync: *fsync,
			nodeName: *nodeName, peersFlag: *peersFlag,
			minAcks: *minAcks, ackTimeout: *ackTimeout, pollInterval: *pollInterval,
			readyFile: *readyFile, plan: plan,
		}, serve.Config{
			Workers:        *workers,
			QueueDepth:     *queue,
			CacheSize:      *cacheSize,
			Deadline:       *deadline,
			FitWorkers:     *fitWorkers,
			FitQueueDepth:  *fitQueue,
			JobTTL:         *jobTTL,
			JobRetain:      *jobRetain,
			DataCacheBytes: *dataCache,
			DataSpillDir:   *dataSpill,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predictd:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	addr, storeDir, optsFlag string
	fsync                    bool
	nodeName, peersFlag      string
	minAcks                  int
	ackTimeout, pollInterval time.Duration
	readyFile                string
	plan                     *faultinject.Plan
}

// hardenedServer wraps a handler in an http.Server with the connection
// timeouts a public daemon needs: a slow-reading or slow-sending client
// is cut off instead of pinning a connection (and its goroutine)
// indefinitely. writeBudget must cover the slowest legitimate response
// (a predict at the full compute deadline).
func hardenedServer(h http.Handler, writeBudget time.Duration) *http.Server {
	if writeBudget < time.Minute {
		writeBudget = time.Minute
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeBudget,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveListener binds addr, optionally writes the bound address to a
// ready file (the multi-process harness reads it to learn a :0 port),
// and serves until ctx is done.
func serveListener(ctx context.Context, httpSrv *http.Server, addr, readyFile string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if readyFile != "" {
		tmp := readyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
		if err := os.Rename(tmp, readyFile); err != nil {
			ln.Close()
			return err
		}
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Print("predictd: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("predictd: shutdown: %v", err)
	}
	return nil
}

func run(rc runConfig, cfg serve.Config) error {
	if rc.optsFlag != "" {
		opts, err := defaultOptions(rc.optsFlag)
		if err != nil {
			return err
		}
		cfg.DefaultOptions = opts
	}

	st, err := store.Open(rc.storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	st.Sync = rc.fsync
	st.Inject = rc.plan

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// cluster mode: the store is the node's log, so its streams'
	// positions are already loaded before the registry opens
	var node *cluster.Node
	if rc.nodeName != "" {
		peers, err := parseMembers(rc.peersFlag)
		if err != nil {
			return err
		}
		node, err = cluster.NewNode(st, cluster.NodeConfig{
			Name: rc.nodeName, Peers: peers,
			MinAcks: rc.minAcks, AckTimeout: rc.ackTimeout,
			PollInterval: rc.pollInterval,
			Client:       &http.Client{Transport: &faultinject.RoundTripper{Plan: rc.plan}},
			Inject:       rc.plan,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		cfg.NodeName = rc.nodeName
		cfg.AckBarrier = node.Barrier
	}

	srv, err := serve.New(st, cfg)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if node != nil {
		node.AttachServer(srv)
		mux := http.NewServeMux()
		node.Register(mux)
		mux.Handle("/", handler)
		handler = mux
		node.Start(ctx)
	}
	log.Printf("predictd: serving on %s (store %s, %d models)", rc.addr, rc.storeDir, srv.Registry().Len())

	// replay the fit-job journal while the listener comes up; /healthz and
	// /v1/fit answer 503 until the replay lands, so a load balancer holds
	// traffic without the daemon delaying its bind
	go func() {
		if node != nil {
			// let every fetch loop drain once first: jobs a failover
			// adopter already finished replay as replicated state, not as
			// re-runs
			cctx, cancel := context.WithTimeout(ctx, time.Minute)
			node.CatchUp(cctx)
			cancel()
		}
		if err := srv.Recover(ctx); err != nil {
			log.Printf("predictd: journal replay: %v", err)
			return
		}
		log.Print("predictd: journal replay complete")
	}()

	httpSrv := hardenedServer(handler, 2*cfg.Deadline)
	if err := serveListener(ctx, httpSrv, rc.addr, rc.readyFile); err != nil {
		return err
	}
	srv.Drain()
	log.Print("predictd: drained")
	return nil
}

func runRouter(addr, membersFlag, readyFile string, cfg cluster.RouterConfig, plan *faultinject.Plan) error {
	members, err := parseMembers(membersFlag)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return fmt.Errorf("-router requires -members")
	}
	cfg.Members = members
	cfg.Client = &http.Client{Transport: &faultinject.RoundTripper{Plan: plan}}
	router := cluster.NewRouter(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	router.Start(ctx)
	log.Printf("predictd: routing on %s across %d members", addr, len(members))
	return serveListener(ctx, hardenedServer(router.Handler(), time.Minute), addr, readyFile)
}

// parseMembers parses "name=url[,name=url...]" (splitting on the first
// '=' of each entry, since URLs may embed '=').
func parseMembers(s string) (map[string]string, error) {
	out := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad member %q (want name=url)", part)
		}
		out[name] = strings.TrimSuffix(url, "/")
	}
	return out, nil
}

// defaultOptions parses the -opts flag into typed pressio options,
// guessing value types the way the config file loader does: bool, int,
// float, then string.
func defaultOptions(s string) (pressio.Options, error) {
	kv, err := cliutil.ParseAssignments(s)
	if err != nil {
		return nil, fmt.Errorf("-opts: %w", err)
	}
	opts := pressio.Options{}
	for k, v := range kv {
		switch {
		case v == "true" || v == "false":
			opts.Set(k, v == "true")
		default:
			if i, err := strconv.ParseInt(v, 10, 64); err == nil {
				opts.Set(k, i)
			} else if f, err := strconv.ParseFloat(v, 64); err == nil {
				opts.Set(k, f)
			} else {
				opts.Set(k, v)
			}
		}
	}
	return opts, nil
}
