// Package opthash computes stable cryptographic hashes of pressio.Options
// structures, the capability the paper introduces into LibPressio to index
// checkpointed results (paper §4.3).
//
// Unlike the hash functions in standard library containers, these hashes
// are stable between executions and across machines: the option structure
// is walked in deterministic (sorted-key) order, every entry with a
// hashable value is folded into a SHA-256 digest with an unambiguous
// type-tagged, length-prefixed framing, and opaque entries (the analogue of
// void* CUDA streams or MPI communicators) are excluded.
package opthash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/pressio"
)

// tag bytes keep the encoding prefix-free across value types so that, e.g.,
// the string "1" and the integer 1 never collide.
const (
	tagBool    = 'b'
	tagInt     = 'i'
	tagFloat   = 'f'
	tagString  = 's'
	tagStrings = 'S'
	tagBytes   = 'B'
)

// Hash returns the 32-byte SHA-256 digest of the options.
func Hash(opts pressio.Options) [32]byte {
	h := sha256.New()
	var scratch [8]byte
	writeLen := func(n int) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(n))
		h.Write(scratch[:])
	}
	for _, key := range opts.Keys() {
		value := opts[key]
		if _, opaque := value.(pressio.Opaque); opaque {
			continue // excluded, like void* objects in LibPressio
		}
		writeLen(len(key))
		h.Write([]byte(key))
		switch v := value.(type) {
		case bool:
			h.Write([]byte{tagBool})
			if v {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		case int64:
			h.Write([]byte{tagInt})
			binary.LittleEndian.PutUint64(scratch[:], uint64(v))
			h.Write(scratch[:])
		case float64:
			h.Write([]byte{tagFloat})
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			h.Write(scratch[:])
		case string:
			h.Write([]byte{tagString})
			writeLen(len(v))
			h.Write([]byte(v))
		case []string:
			h.Write([]byte{tagStrings})
			writeLen(len(v))
			for _, s := range v {
				writeLen(len(s))
				h.Write([]byte(s))
			}
		case []byte:
			h.Write([]byte{tagBytes})
			writeLen(len(v))
			h.Write(v)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashString returns the hex-encoded Hash, convenient as a store key.
func HashString(opts pressio.Options) string {
	sum := Hash(opts)
	return hex.EncodeToString(sum[:])
}

// Combine hashes several option structures together in order — used to key
// a benchmark task by (compressor config, dataset config, experiment
// metadata, replicate) as §4.3 describes.
func Combine(parts ...pressio.Options) string {
	sums := make([][32]byte, len(parts))
	for i, p := range parts {
		sums[i] = Hash(p)
	}
	return CombineSums(sums...)
}

// CombineSums is Combine over parts already hashed: the hex SHA-256 of
// their Hash sums in order. A caller whose keys share parts hashes each
// part once.
func CombineSums(sums ...[32]byte) string {
	var stack [4 * 32]byte // a cell key's parts fit: no digest to allocate
	buf := stack[:0]
	for _, s := range sums {
		buf = append(buf, s[:]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
