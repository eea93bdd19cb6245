package serve

// Cluster support: the hooks internal/cluster drives when predictd runs
// replicated. The replication layer applies shipped WAL frames to the
// local store itself; Absorb keeps this server's in-memory projections
// (registry, result cache) coherent with those writes, and Adopt is the
// failover half — taking over a dead peer's journaled fit jobs so its 202
// acknowledgements are honored by a survivor.

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"strings"

	"repro/internal/store"
)

// ModelBytesEquivalent reports whether two persisted registry values
// describe the same trained model. Registry entries embed a per-node Seq
// (the "newest model wins" ordering for Lookup), so two nodes re-running
// the same deterministic fit — an adopter and the restarted owner — can
// persist byte-different values that differ only in Seq. That is not a
// divergent publish; the replication layer's divergence detector uses
// this comparison instead of raw byte equality. Values that do not decode
// as model entries are compared literally.
func ModelBytesEquivalent(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	var ea, eb ModelEntry
	if gob.NewDecoder(bytes.NewReader(a)).Decode(&ea) != nil {
		return false
	}
	if gob.NewDecoder(bytes.NewReader(b)).Decode(&eb) != nil {
		return false
	}
	ea.Seq, eb.Seq = 0, 0
	return reflect.DeepEqual(ea, eb)
}

// Absorb folds one replicated WAL frame into the server's in-memory
// caches after the replication layer applied it to the local store.
// Model frames update the registry projection (a replaced or deleted
// entry takes its decoded predictor with it) and evict that key from the
// result cache; job frames need no live projection (Recover and Adopt
// read them from the store, and a peer's jobs stay read-only until
// adopted).
func (s *Server) Absorb(f store.Frame) {
	if !strings.HasPrefix(f.Key, modelPrefix) {
		return
	}
	switch f.Op {
	case store.FramePut:
		s.registry.Absorb(f.Key, f.Value)
	case store.FrameDelete:
		s.registry.Forget(f.Key)
	}
	s.cache.evictIf(func(v cellValue) bool { return v.model == f.Key })
}

// Adopt takes over the journaled fit jobs of a dead peer: each of the
// peer's records is re-authored under this node and jobs the peer's
// death interrupted are re-enqueued to run here, carrying its 202
// promise. Fit execution's publish-once-per-opthash adoption makes the
// re-run idempotent even when the dead node's model publish survived
// it. Returns how many jobs were adopted.
func (s *Server) Adopt(ctx context.Context, node string) (int, error) {
	if node == "" || node == s.cfg.NodeName {
		return 0, nil
	}
	return s.claim(ctx, node)
}
