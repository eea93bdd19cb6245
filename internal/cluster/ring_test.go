package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2"})
	for i := 0; i < 100; i++ {
		key := PartitionKey("scheme", fmt.Sprintf("comp-%d", i))
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs across construction orders", key)
		}
		if !reflect.DeepEqual(a.Replicas(key, 2), b.Replicas(key, 2)) {
			t.Fatalf("replicas of %q differ across construction orders", key)
		}
	}
}

func TestRingReplicasDistinctOwnerFirst(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	for i := 0; i < 50; i++ {
		key := PartitionKey("s", fmt.Sprintf("c%d", i))
		reps := r.Replicas(key, 3)
		if len(reps) != 3 {
			t.Fatalf("%q: %d replicas, want 3", key, len(reps))
		}
		if reps[0] != r.Owner(key) {
			t.Errorf("%q: first replica %s is not the owner %s", key, reps[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Errorf("%q: duplicate replica %s", key, n)
			}
			seen[n] = true
		}
	}
	// asking for more replicas than members clamps
	if got := r.Replicas("k", 10); len(got) != 3 {
		t.Errorf("Replicas(10) = %d members", len(got))
	}
	if empty := NewRing(nil); empty.Owner("k") != "" {
		t.Error("empty ring has an owner")
	}
}

func TestRingSpread(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3"})
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("s/c%d", i))]++
	}
	for node, c := range counts {
		// 64 vnodes keeps the spread loose but bounded; a node owning
		// under 15% or over 55% means the hash is broken
		if c < n*15/100 || c > n*55/100 {
			t.Errorf("node %s owns %d/%d partitions", node, c, n)
		}
	}
}

func TestPartitionKeyMatchesStoreKeyPrefix(t *testing.T) {
	if got := PartitionKey("krasowska2021", "sz3"); got != "krasowska2021/sz3" {
		t.Errorf("PartitionKey = %q", got)
	}
}
