// Package cluster turns predictd into a replicated service: an
// opthash-space consistent-hash ring assigns every model/job partition
// an owner, the store's CRC-framed WAL frames are shipped owner →
// follower through a durable per-node replication log, and a thin
// stateless router health-probes members, routes fits to owners and
// predictions to any live replica, and fails ownership over to the
// most-caught-up follower when an owner dies. The crash-consistency
// machinery of internal/store and internal/serve (journal-before-ack,
// publish-once-per-opthash, Recover replay) is the replication
// primitive: a shipped frame is exactly a WAL frame, and failover is
// exactly journal recovery run over the shipped log.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per member; 64 keeps the partition
// spread within a few percent of even for small clusters.
const vnodes = 64

// Ring is an immutable consistent-hash ring over the cluster members.
// Keys are partition keys — "scheme/compressor", the prefix every model
// and job opthash key carries — so one partition's fits always land on
// one owner, which is what keeps each opthash single-writer.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // member names, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the named members with vnodes virtual
// points each. Node order does not matter: the ring depends only on the
// set of names.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	for _, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", n, i)),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the member names, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the member owning the partition key.
func (r *Ring) Owner(key string) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Replicas returns up to n distinct members for the partition key,
// owner first, walking the ring clockwise from the key's position —
// the owner plus its R−1 followers.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []string
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}

// PartitionKey is the ring key of a (scheme, compressor) pair — the
// shared prefix of every model/ and job/ opthash key in the store, so
// everything about one trained model hashes to one owner.
func PartitionKey(scheme, compressor string) string {
	return scheme + "/" + compressor
}
