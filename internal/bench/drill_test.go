package bench

import (
	"context"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// TestRemoteDrill is the remote path across real processes: three
// race-built predictd nodes and a router (scenario.Deploy), a checkpointed
// collection through the router, one node SIGKILLed while it holds a
// buffer's pin, the driver itself interrupted a few cells later, and a
// second run that resumes from the checkpoint and finishes on the two
// surviving nodes. Run via `make remote-check`; -short skips.
func TestRemoteDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process drill")
	}
	binDir, err := os.MkdirTemp("", "predictd-drill-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(binDir)
	bin, err := scenario.BuildPredictd(context.Background(), "../..", binDir)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := scenario.Deploy(context.Background(), bin, t.TempDir(),
		scenario.Topology{Nodes: 3, ProbeIntervalMS: 50, PollIntervalMS: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dep.Close(); err != nil {
			t.Error(err)
		}
		if t.Failed() {
			for _, p := range append([]*scenario.Proc{dep.Router}, dep.Nodes...) {
				t.Logf("--- %s log ---\n%s", p.Name, p.Log())
			}
		}
	}()

	newSpec := func() *Spec {
		spec := resilienceSpec()
		spec.Fields = []string{"P", "CLOUD", "U", "QRAIN"}
		spec.Schemes = []string{"khan2023", "rahman2023"}
		spec.Retries = 6
		spec.Remote = dep.Router.Base
		return spec
	}
	total := 4 * 2 * 2 // fields × steps × bounds

	// one worker runs a buffer's two cells back to back, the first buffer
	// first: kill its ring owner between them, and the second cell finds
	// its pin dead
	var names []string
	procs := map[string]*scenario.Proc{}
	for _, p := range dep.Nodes {
		names = append(names, p.Name)
		procs[p.Name] = p
	}
	victim := cluster.NewRing(names).Owner("P/0")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	spec := newSpec()
	spec.Workers = 1
	spec.StoreDir = dir
	cells := 0
	spec.Progress = func(line string) {
		if strings.HasPrefix(line, "queue:") || strings.HasPrefix(line, "FAILED") {
			return
		}
		switch cells++; cells {
		case 1:
			if err := procs[victim].Kill(); err != nil {
				t.Error(err)
			}
		case 5:
			cancel() // the driver dies too
		}
	}
	res, err := CollectDetailed(ctx, spec)
	if err != nil {
		t.Fatalf("interrupted collect: %v", err)
	}
	if n := len(res.Observations); n < 5 || n >= total {
		t.Fatalf("first run collected %d of %d cells: want it cut short after the kill", n, total)
	}

	if err := dep.WaitLive(context.Background(), 2, 30*time.Second); err != nil { // the probe's verdict on the victim
		t.Fatal(err)
	}
	var st cluster.RouterStatus
	if err := dep.GetJSON(dep.Router.Base+"/v1/router/status", &st); err != nil {
		t.Fatal(err)
	}
	if st.Repins == 0 || st.Members[victim] == "closed" {
		t.Errorf("router status %+v: want %s dead and its buffer re-pinned", st, victim)
	}

	spec2 := newSpec()
	spec2.StoreDir = dir
	res2, err := CollectDetailed(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Observations) != total || len(res2.Failed) != 0 {
		t.Fatalf("resumed run: %d/%d observations, failed %v", len(res2.Observations), total, res2.Failed)
	}
	if res2.QueueStats.Skipped != len(res.Observations) {
		t.Errorf("resumed run skipped %d cells, the first run checkpointed %d", res2.QueueStats.Skipped, len(res.Observations))
	}

	// what two surviving processes and a checkpoint produced is what one
	// process computes
	local, err := Collect(context.Background(), func() *Spec { s := newSpec(); s.Remote = ""; return s }())
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range local {
		r := res2.Observations[i]
		if r.Field != l.Field || r.Step != l.Step || math.Float64bits(r.CR) != math.Float64bits(l.CR) {
			t.Errorf("cell %d: remote %s/%d CR=%v, local %s/%d CR=%v", i, r.Field, r.Step, r.CR, l.Field, l.Step, l.CR)
		}
		for k, lv := range l.Features {
			if rv, ok := r.Features[k]; !ok || math.Float64bits(rv) != math.Float64bits(lv) {
				t.Errorf("cell %d feature %s: remote %v, local %v", i, k, rv, lv)
			}
		}
	}
}
