package hurricane

// The golden digests pin every bit the generator produces: compressor
// fixtures, corpus manifests and Table 2 all stand on these buffers. The
// file was written by the per-sample generator the separable evaluation
// replaced and must never be regenerated to make a change pass; a
// deliberate, versioned change of the dataset rewrites it with:
//
//	go test ./internal/hurricane/ -run TestFieldGoldenDigests -update-golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// goldenGrids are the pinned grids: the default grid, the benchmark's
// cell, a serving-sized cell, and shapes that degenerate an axis (a
// one-sample axis sits at unit coordinate 0; 9 samples straddle every
// octave's lattice differently than a power of two does).
var goldenGrids = [][]int{{32, 64, 64}, {32, 32, 64}, {16, 32, 32}, {5, 7, 3}, {2, 1, 9}, {1, 1, 1}}

// fieldDigest is the SHA-256 of the field's little-endian float32 bytes.
func fieldDigest(t testing.TB, field string, step int, dims []int, seed uint64) string {
	t.Helper()
	d, err := FieldSeeded(field, step, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	vals := d.Float32()
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func TestFieldGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64, where math.Exp is assembly; GOARCH=%s may round its transcendentals differently", runtime.GOARCH)
	}
	got := map[string]string{}
	for _, field := range FieldNames {
		for _, step := range []int{0, 24, 47} {
			for _, dims := range goldenGrids {
				for _, seed := range []uint64{0, 7} {
					key := fmt.Sprintf("%s/t%02d/%dx%dx%d/seed=%d", field, step, dims[0], dims[1], dims[2], seed)
					got[key] = fieldDigest(t, field, step, dims, seed)
				}
			}
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d fields, the test generates %d", goldenPath, len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, golden %s", key, digest, want[key])
		}
	}
}
