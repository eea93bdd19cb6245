package gate

import (
	"strings"
	"testing"
)

var kernelRules = []Rule{
	{Metric: "ns_per_op", Tolerance: 0.10},
	{Metric: "allocs_per_op", Tolerance: 0.10, Slack: 0.5},
}

func TestCompareWithinBandPasses(t *testing.T) {
	base := map[string]Row{"BenchA": {"ns_per_op": 1000, "allocs_per_op": 10}}
	cur := map[string]Row{"BenchA": {"ns_per_op": 1090, "allocs_per_op": 10}}
	if fails := Compare(base, cur, kernelRules); len(fails) != 0 {
		t.Fatalf("within-band run failed the gate: %v", fails)
	}
}

func TestCompareHigherIsWorse(t *testing.T) {
	base := map[string]Row{"BenchA": {"ns_per_op": 1000}}
	cur := map[string]Row{"BenchA": {"ns_per_op": 1111}}
	fails := Compare(base, cur, kernelRules)
	if len(fails) != 1 {
		t.Fatalf("11%% ns/op regression not caught: %v", fails)
	}
	if fails[0].Row != "BenchA" || fails[0].Metric != "ns_per_op" {
		t.Errorf("failure misattributed: %+v", fails[0])
	}
	if !strings.Contains(fails[0].String(), "ns_per_op") {
		t.Errorf("failure text missing metric: %s", fails[0])
	}
	// improvement in a higher-is-worse metric never fails
	cur["BenchA"]["ns_per_op"] = 10
	if fails := Compare(base, cur, kernelRules); len(fails) != 0 {
		t.Fatalf("improvement failed the gate: %v", fails)
	}
}

func TestCompareAbsoluteSlack(t *testing.T) {
	// 10 → 11 allocs is +10% exactly at the band, plus 0.5 slack: passes.
	// 2 → 3 allocs is +50%: still passes on slack. 2 → 4 fails.
	base := map[string]Row{"B": {"allocs_per_op": 2}}
	if fails := Compare(base, map[string]Row{"B": {"allocs_per_op": 2.7}}, kernelRules); len(fails) != 0 {
		t.Fatalf("slack not applied: %v", fails)
	}
	if fails := Compare(base, map[string]Row{"B": {"allocs_per_op": 4}}, kernelRules); len(fails) != 1 {
		t.Fatalf("doubling allocs not caught: %v", fails)
	}
}

func TestCompareMissingRowFails(t *testing.T) {
	base := map[string]Row{"gone": {"ns_per_op": 1}}
	fails := Compare(base, map[string]Row{}, kernelRules)
	if len(fails) != 1 || !strings.Contains(fails[0].String(), "not in current run") {
		t.Fatalf("deleted row not caught: %v", fails)
	}
}

func TestCompareNewRowPasses(t *testing.T) {
	cur := map[string]Row{"brand-new": {"ns_per_op": 1e9}}
	if fails := Compare(map[string]Row{}, cur, kernelRules); len(fails) != 0 {
		t.Fatalf("row absent from baseline failed the gate: %v", fails)
	}
}

func TestCompareMissingMetric(t *testing.T) {
	base := map[string]Row{"r": {"rss_bytes": 100}}
	rules := []Rule{{Metric: "rss_bytes", Tolerance: 0.10}}
	fails := Compare(base, map[string]Row{"r": {}}, rules)
	if len(fails) != 1 {
		t.Fatalf("dropped metric not caught: %v", fails)
	}
}

func TestCompareDeterministicOrder(t *testing.T) {
	base := map[string]Row{
		"b": {"ns_per_op": 1}, "a": {"ns_per_op": 1}, "c": {"ns_per_op": 1},
	}
	fails := Compare(base, map[string]Row{}, kernelRules)
	if len(fails) != 3 || fails[0].Row != "a" || fails[1].Row != "b" || fails[2].Row != "c" {
		t.Fatalf("failures not in sorted row order: %v", fails)
	}
}
