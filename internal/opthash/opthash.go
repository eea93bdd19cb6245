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
	"slices"

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
	var stack [256]byte
	return sha256.Sum256(Append(stack[:0], opts))
}

// Append appends what Hash digests to dst: each hashable entry in
// sorted key order as its length-prefixed key, a type tag and the
// length-prefixed or fixed-width value. A key that folds options into a
// digest with other parts appends them to its own framing.
func Append(dst []byte, opts pressio.Options) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range opts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		value := opts[key]
		if _, opaque := value.(pressio.Opaque); opaque {
			continue // excluded, like void* objects in LibPressio
		}
		dst = appendString(dst, key)
		switch v := value.(type) {
		case bool:
			b := byte(0)
			if v {
				b = 1
			}
			dst = append(dst, tagBool, b)
		case int64:
			dst = binary.LittleEndian.AppendUint64(append(dst, tagInt), uint64(v))
		case float64:
			dst = binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(v))
		case string:
			dst = appendString(append(dst, tagString), v)
		case []string:
			dst = binary.LittleEndian.AppendUint64(append(dst, tagStrings), uint64(len(v)))
			for _, s := range v {
				dst = appendString(dst, s)
			}
		case []byte:
			dst = appendString(append(dst, tagBytes), v)
		}
	}
	return dst
}

// appendString appends s after its length.
func appendString[S string | []byte](dst []byte, s S) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, uint64(len(s))), s...)
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
