package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one predictd child: a node or the router.
type proc struct {
	name string
	base string // http://127.0.0.1:port
	dir  string
	cmd  *exec.Cmd
	done chan struct{}
}

// start launches predictd with the given flags plus -ready-file, and waits
// until the listener is bound. The child dies with the harness (Pdeathsig)
// and is registered with the environment, whose close kills it.
func (e *environment) start(ctx context.Context, name, dir string, args ...string) (*proc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ready := filepath.Join(dir, "ready")
	logf, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.bin, append(args, "-ready-file", ready)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %v", name, err)
	}
	p := &proc{name: name, dir: dir, cmd: cmd, done: make(chan struct{})}
	go func() { cmd.Wait(); close(p.done) }()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if raw, err := os.ReadFile(ready); err == nil {
			p.base = "http://" + strings.TrimSpace(string(raw))
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before binding:\n%s", name, p.log())
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s never wrote %s:\n%s", name, ready, p.log())
		}
	}
}

// kill SIGKILLs the child and waits until it has been reaped.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

func (p *proc) log() string {
	raw, _ := os.ReadFile(filepath.Join(p.dir, "log"))
	return string(raw)
}

// peakRSSMiB reads the child's high-water resident set from procfs.
func (p *proc) peakRSSMiB() float64 { return vmHWMMiB(strconv.Itoa(p.cmd.Process.Pid)) }

// vmHWMMiB parses VmHWM of /proc/<pid>/status ("self" for the harness).
func vmHWMMiB(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// deployment is a running system under test: where the client sends, the
// predictd nodes whose /statz are scraped, and every process whose memory
// counts.
type deployment struct {
	env    *environment
	base   string
	nodes  []*proc
	router *proc
	client *http.Client
}

func newClient() *http.Client {
	n := conns()
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * n,
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
		},
	}
}

// close kills the deployment's processes; its directories go with the run
// directory.
func (d *deployment) close() {
	procs := d.nodes
	if d.router != nil {
		procs = append([]*proc{d.router}, procs...)
	}
	for _, p := range procs {
		p.kill()
	}
	d.client.CloseIdleConnections()
	d.env.forget(procs)
}

func (e *environment) forget(gone []*proc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.procs[:0]
	for _, p := range e.procs {
		dead := false
		for _, g := range gone {
			dead = dead || g == p
		}
		if !dead {
			kept = append(kept, p)
		}
	}
	e.procs = kept
}

func (d *deployment) peakRSSMiB() float64 {
	sum := 0.0
	for _, p := range d.nodes {
		sum += p.peakRSSMiB()
	}
	if d.router != nil {
		sum += d.router.peakRSSMiB()
	}
	return sum
}

// deploySingle starts one predictd with default flags plus extra.
func (e *environment) deploySingle(ctx context.Context, extra ...string) (*deployment, error) {
	dir, err := e.tempDir("node-")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store")}, extra...)
	for i, a := range args {
		args[i] = strings.ReplaceAll(a, "{dir}", dir)
	}
	d := &deployment{env: e, client: newClient()}
	p, err := e.start(ctx, "predictd", dir, args...)
	if err != nil {
		return nil, err
	}
	d.nodes = []*proc{p}
	d.base = p.base
	if err := d.waitHealthy(ctx, p.base); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// deployCluster starts the scenario topology — nodes replicated predictd
// processes and one router — with the flags scenario.Deploy uses. Peers
// must be named before any node starts, so the ports are reserved by
// binding and releasing them; the router binds :0.
func (e *environment) deployCluster(ctx context.Context, nodes int) (*deployment, error) {
	root, err := e.tempDir("cluster-")
	if err != nil {
		return nil, err
	}
	ports := make([]int, nodes)
	listeners := make([]net.Listener, 0, nodes)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ports[i] = ln.Addr().(*net.TCPAddr).Port
		listeners = append(listeners, ln) // held until all are chosen, so they differ
	}
	for _, ln := range listeners {
		ln.Close()
	}
	names := make([]string, nodes)
	members := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
		members[i] = fmt.Sprintf("%s=http://127.0.0.1:%d", names[i], ports[i])
	}
	d := &deployment{env: e, client: newClient()}
	fail := func(err error) (*deployment, error) { d.close(); return nil, err }
	for i, name := range names {
		peers := append(append([]string(nil), members[:i]...), members[i+1:]...)
		dir := filepath.Join(root, name)
		p, err := e.start(ctx, name, dir,
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-store", filepath.Join(dir, "store"),
			"-node", name, "-peers", strings.Join(peers, ","),
			"-repl-dir", filepath.Join(dir, "repl"),
			"-poll-interval", "20ms", "-ack-timeout", "3s",
			"-data-spill", filepath.Join(dir, "spill"))
		if err != nil {
			return fail(err)
		}
		d.nodes = append(d.nodes, p)
	}
	if d.router, err = e.start(ctx, "router", filepath.Join(root, "router"),
		"-addr", "127.0.0.1:0", "-router",
		"-members", strings.Join(members, ","), "-probe-interval", "50ms"); err != nil {
		return fail(err)
	}
	d.base = d.router.base
	for _, p := range d.nodes {
		if err := d.waitHealthy(ctx, p.base); err != nil {
			return fail(err)
		}
	}
	// the router must see every member live before it routes
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st struct {
			Members map[string]string `json:"members"`
		}
		live := 0
		if d.getJSON(ctx, d.base+"/v1/router/status", &st) == nil {
			for _, s := range st.Members {
				if s == "closed" {
					live++
				}
			}
		}
		if live == nodes {
			return d, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("router saw %d of %d members live:\n%s", live, nodes, d.router.log()))
		}
		if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
			return fail(err)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

func (d *deployment) waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, _, err := d.do(ctx, http.MethodGet, base+"/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy (last: HTTP %d, %v)", base, status, err)
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
}

// do sends one request and returns the status and the whole body.
func (d *deployment) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	status, raw, _, err := d.doHeader(ctx, method, url, body)
	return status, raw, err
}

func (d *deployment) doHeader(ctx context.Context, method, url string, body []byte) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, resp.Header, err
}

func (d *deployment) getJSON(ctx context.Context, url string, v any) error {
	status, raw, err := d.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, status, raw)
	}
	return json.Unmarshal(raw, v)
}

// statz is the part of predictd's /statz the benchmark reads, summed over
// nodes. It mirrors the JSON, not serve.Statz, so the end-to-end run
// depends on the daemon's wire format only.
type statz struct {
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CellHits      uint64 `json:"cell_hits"`
	CoalescedHits uint64 `json:"coalesced_hits"`
	Rejected      uint64 `json:"rejected"`
	DataCache     struct {
		MemHits       uint64 `json:"mem_hits"`
		DiskHits      uint64 `json:"disk_hits"`
		Misses        uint64 `json:"misses"`
		Evictions     uint64 `json:"evictions"`
		ResidentBytes int64  `json:"resident_bytes"`
	} `json:"data_cache"`
	Process struct {
		HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
		GCPauseP99MS   float64 `json:"gc_pause_p99_ms"`
	} `json:"process"`
}

// answered is the number of predictions /statz has accounted for: every
// single request and every batch item lands in exactly one bucket.
func (s *statz) answered() uint64 {
	return s.CacheHits + s.CacheMisses + s.CellHits + s.CoalescedHits
}

func (d *deployment) statz(ctx context.Context) (statz, error) {
	var sum statz
	for _, p := range d.nodes {
		var s statz
		if err := d.getJSON(ctx, p.base+"/statz", &s); err != nil {
			return sum, err
		}
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.CellHits += s.CellHits
		sum.CoalescedHits += s.CoalescedHits
		sum.Rejected += s.Rejected
		sum.DataCache.MemHits += s.DataCache.MemHits
		sum.DataCache.DiskHits += s.DataCache.DiskHits
		sum.DataCache.Misses += s.DataCache.Misses
		sum.DataCache.Evictions += s.DataCache.Evictions
		sum.DataCache.ResidentBytes += s.DataCache.ResidentBytes
		sum.Process.HeapAllocBytes += s.Process.HeapAllocBytes
		sum.Process.GCPauseP99MS = max(sum.Process.GCPauseP99MS, s.Process.GCPauseP99MS)
	}
	return sum, nil
}
