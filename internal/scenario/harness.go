package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// now is the injectable wall clock (replay-sensitive code never reads
// time.Now directly; see pressiovet/detrand).
var now = time.Now

// BuildPredictd compiles cmd/predictd into dir and returns the binary
// path. The build is race-enabled, so the deployed daemons run under the
// detector, wherever the target platform supports the detector (not
// linux/386, say, where the daemons run without it). repoRoot is the
// module root the build runs from.
func BuildPredictd(ctx context.Context, repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "predictd")
	args := []string{"build", "-o", bin}
	race, err := raceSupported(ctx, repoRoot)
	if err != nil {
		return "", err
	}
	if race {
		args = append(args, "-race")
	}
	cmd := exec.CommandContext(ctx, "go", append(args, "repro/cmd/predictd")...)
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building predictd: %v\n%s", err, out)
	}
	return bin, nil
}

// raceSupported reports whether the race detector supports the GOOS and
// GOARCH a build from repoRoot targets, by the toolchain's own list
// (internal/platform.RaceDetectorSupported, which is not importable).
func raceSupported(ctx context.Context, repoRoot string) (bool, error) {
	cmd := exec.CommandContext(ctx, "go", "env", "GOOS", "GOARCH")
	cmd.Dir = repoRoot
	out, err := cmd.Output()
	if err != nil {
		return false, fmt.Errorf("go env: %w", err)
	}
	target := strings.Fields(string(out))
	if len(target) != 2 {
		return false, fmt.Errorf("go env GOOS GOARCH: %q", out)
	}
	switch goos, goarch := target[0], target[1]; goos {
	case "linux":
		return goarch == "amd64" || goarch == "ppc64le" || goarch == "arm64" || goarch == "s390x", nil
	case "darwin":
		return goarch == "amd64" || goarch == "arm64", nil
	case "freebsd", "netbsd", "windows":
		return goarch == "amd64", nil
	}
	return false, nil
}

// freePorts reserves n distinct listen ports by binding and releasing
// them (peers must be named before any process starts).
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	defer func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// Proc is one deployed predictd (node or router) process.
type Proc struct {
	Name string
	Base string // http://127.0.0.1:port
	Dir  string
	args []string
	bin  string
	log  *os.File
	cmd  *exec.Cmd
	done chan error
}

// Start launches the process with its deployment arguments plus extra,
// which apply to this launch only: a node deployed with a fault plan
// restarts clean under a plain Start().
func (p *Proc) Start(extra ...string) error {
	os.Remove(filepath.Join(p.Dir, "ready"))
	cmd := exec.Command(p.bin, append(p.args[:len(p.args):len(p.args)], extra...)...)
	cmd.Stdout = p.log
	cmd.Stderr = p.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %v", p.Name, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait(); close(done) }()
	p.cmd, p.done = cmd, done
	return nil
}

// Kill SIGKILLs the process and waits for it to reap. Safe on a process
// that never started or has already exited.
func (p *Proc) Kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return nil
	}
	p.cmd.Process.Kill()
	select {
	case <-p.done:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s did not die after SIGKILL", p.Name)
	}
}

// WaitExit waits for the process to exit on its own (a seeded crash
// rule) and returns its exit code.
func (p *Proc) WaitExit(within time.Duration) (int, error) {
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode(), nil
	case <-time.After(within):
		return -1, fmt.Errorf("%s still alive after %v", p.Name, within)
	}
}

// Log returns the process's captured stdout+stderr so far.
func (p *Proc) Log() string {
	raw, err := os.ReadFile(filepath.Join(p.Dir, "log"))
	if err != nil {
		return ""
	}
	return string(raw)
}

// Harness is a deployed cluster: Topology.Nodes predictd replicas (named
// n1..nN, in that order) plus one router, all real OS processes.
type Harness struct {
	Nodes  []*Proc
	Router *Proc
	// Client is what the harness itself polls with. Its timeout is the
	// hang detector: a wedged router fails the run here, not at a suite
	// deadline.
	Client *http.Client
}

// Deploy boots the topology under workDir using a prebuilt predictd
// binary and waits until every node is healthy and the router sees them
// all live. extra maps a node name to arguments appended to that node's
// first launch (the kill tests' -fault-plan). On any error the partial
// deployment is torn down.
func Deploy(ctx context.Context, bin, workDir string, topo Topology, extra map[string][]string) (*Harness, error) {
	ports, err := freePorts(topo.Nodes + 1)
	if err != nil {
		return nil, err
	}
	names := make([]string, topo.Nodes)
	bases := make([]string, topo.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
		bases[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
	}

	h := &Harness{Client: &http.Client{Timeout: 20 * time.Second}}
	fail := func(err error) (*Harness, error) {
		h.Close()
		return nil, err
	}
	for i, name := range names {
		dir := filepath.Join(workDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		logf, err := os.Create(filepath.Join(dir, "log"))
		if err != nil {
			return fail(err)
		}
		var peers []string
		for j, o := range names {
			if o != name {
				peers = append(peers, o+"="+bases[j])
			}
		}
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-store", filepath.Join(dir, "store"),
			"-node", name,
			"-peers", strings.Join(peers, ","),
			"-poll-interval", fmt.Sprintf("%dms", topo.PollIntervalMS),
			"-ack-timeout", "3s",
			// every deployed node gets a spill dir, so scenario load always
			// exercises the dataset cache's mmap disk tier, not just the
			// memory tier the unit tests cover
			"-data-spill", filepath.Join(dir, "spill"),
			"-ready-file", filepath.Join(dir, "ready"),
		}
		p := &Proc{Name: name, Base: bases[i], Dir: dir, args: args, bin: bin, log: logf}
		h.Nodes = append(h.Nodes, p)
		if err := p.Start(extra[name]...); err != nil {
			return fail(err)
		}
	}

	rdir := filepath.Join(workDir, "router")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return fail(err)
	}
	rlog, err := os.Create(filepath.Join(rdir, "log"))
	if err != nil {
		return fail(err)
	}
	var members []string
	for i, name := range names {
		members = append(members, name+"="+bases[i])
	}
	h.Router = &Proc{
		Name: "router", Base: fmt.Sprintf("http://127.0.0.1:%d", ports[topo.Nodes]), Dir: rdir,
		args: []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[topo.Nodes]),
			"-router",
			"-members", strings.Join(members, ","),
			"-probe-interval", fmt.Sprintf("%dms", topo.ProbeIntervalMS),
			"-ready-file", filepath.Join(rdir, "ready"),
		},
		bin: bin, log: rlog,
	}
	if err := h.Router.Start(); err != nil {
		return fail(err)
	}

	for _, p := range h.Nodes {
		if err := h.WaitHealthy(ctx, p.Base, 30*time.Second); err != nil {
			return fail(err)
		}
	}
	if err := h.WaitLive(ctx, topo.Nodes, 30*time.Second); err != nil {
		return fail(err)
	}
	return h, nil
}

// Close kills every process. Safe on a partially-deployed harness.
func (h *Harness) Close() error {
	var firstErr error
	if h.Router != nil {
		if err := h.Router.Kill(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range h.Nodes {
		if err := p.Kill(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, p := range append(h.Nodes, h.Router) {
		if p != nil && p.log != nil {
			p.log.Close()
		}
	}
	return firstErr
}

// WaitHealthy blocks until the process at base answers /healthz 200.
func (h *Harness) WaitHealthy(ctx context.Context, base string, within time.Duration) error {
	deadline := now().Add(within)
	for now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := h.Client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", base)
}

// WaitLive blocks until the router reports n live members.
func (h *Harness) WaitLive(ctx context.Context, n int, within time.Duration) error {
	deadline := now().Add(within)
	for now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		var st cluster.RouterStatus
		if h.GetJSON(h.Router.Base+"/v1/router/status", &st) == nil {
			live := 0
			for _, state := range st.Members {
				if state == "closed" {
					live++
				}
			}
			if live == n {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("router never saw %d live members", n)
}

// GetJSON decodes a 200 response from url into v.
func (h *Harness) GetJSON(url string, v any) error {
	resp, err := h.Client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Statz scrapes every node's /statz, keyed by node name.
func (h *Harness) Statz(ctx context.Context) (map[string]serve.Statz, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]serve.Statz, len(h.Nodes))
	for _, p := range h.Nodes {
		var st serve.Statz
		if err := h.GetJSON(p.Base+"/statz", &st); err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.Name, err)
		}
		out[p.Name] = st
	}
	return out, nil
}
