package compressor_test

// Golden tests pin the exact compressed byte streams of the sz3, zfp, and
// szx kernels. Any change to the on-disk hashes means the encoding
// changed, which breaks stored streams and the determinism guarantee of
// DESIGN.md §10. Regenerate (only for a deliberate, versioned format
// change) with:
//
//	go test ./internal/compressor/ -run TestGolden -update-golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	_ "repro/internal/compressor/sz3"
	_ "repro/internal/compressor/szx"
	_ "repro/internal/compressor/zfp"
	"repro/internal/pressio"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden kernel fixtures")

const goldenPath = "testdata/golden_kernels.json"

// goldenCase describes one pinned compression run.
type goldenCase struct {
	Compressor string
	DType      string
	Dims       []int
	Abs        float64
	Extra      map[string]any // compressor-specific options
}

func (c goldenCase) name() string {
	s := fmt.Sprintf("%s/%s/%v/abs=%g", c.Compressor, c.DType, c.Dims, c.Abs)
	keys := make([]string, 0, len(c.Extra))
	for k := range c.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf("/%s=%v", k, c.Extra[k])
	}
	return s
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	dimSets := [][]int{{257}, {33, 47}, {16, 24, 20}, {3, 5, 6, 7}}
	for _, dims := range dimSets {
		for _, dt := range []string{"float32", "float64"} {
			for _, abs := range []float64{1e-3, 1e-5} {
				for _, pred := range []string{"lorenzo", "interp", "regression"} {
					cases = append(cases, goldenCase{
						Compressor: "sz3", DType: dt, Dims: dims, Abs: abs,
						Extra: map[string]any{"sz3:predictor": pred},
					})
				}
				cases = append(cases, goldenCase{Compressor: "zfp", DType: dt, Dims: dims, Abs: abs})
				cases = append(cases, goldenCase{Compressor: "szx", DType: dt, Dims: dims, Abs: abs})
			}
		}
	}
	// small block size exercises szx block boundaries
	cases = append(cases, goldenCase{
		Compressor: "szx", DType: "float32", Dims: []int{100}, Abs: 1e-4,
		Extra: map[string]any{"szx:block_size": 16},
	})
	return cases
}

// goldenField synthesizes a deterministic test field: smooth waves plus a
// reproducible pseudo-random component and a constant patch (so szx's
// constant-block path and sz3's outlier path are both exercised).
func goldenField(dtype string, dims []int) *pressio.Data {
	n := 1
	for _, d := range dims {
		n *= d
	}
	var t pressio.DType
	switch dtype {
	case "float32":
		t = pressio.DTypeFloat32
	case "float64":
		t = pressio.DTypeFloat64
	default:
		panic("golden: unknown dtype " + dtype)
	}
	d := pressio.New(t, dims...)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		// xorshift64* noise, scaled small against the smooth component
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		noise := float64(state%10007)/10007 - 0.5
		v := math.Sin(float64(i)*0.01) + 0.3*math.Cos(float64(i)*0.003) + 0.05*noise
		if i%97 == 0 {
			v *= 50 // spikes: force outliers at tight bounds
		}
		if n/4 <= i && i < n/4+n/16 {
			v = 0.25 // constant run
		}
		d.Set(i, v)
	}
	return d
}

func runGoldenCase(t *testing.T, c goldenCase) []byte {
	t.Helper()
	comp, err := pressio.GetCompressor(c.Compressor)
	if err != nil {
		t.Fatal(err)
	}
	o := pressio.Options{}
	o.Set(pressio.OptAbs, c.Abs)
	for k, v := range c.Extra {
		o.Set(k, v)
	}
	if err := comp.SetOptions(o); err != nil {
		t.Fatal(err)
	}
	in := goldenField(c.DType, c.Dims)
	out, err := comp.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	// round-trip: errors must respect the bound
	dec := pressio.New(in.DType(), in.Dims()...)
	if err := comp.Decompress(out, dec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.Len(); i++ {
		if e := math.Abs(in.At(i) - dec.At(i)); e > c.Abs*(1+1e-12) {
			t.Fatalf("element %d error %g exceeds bound %g", i, e, c.Abs)
		}
	}
	return out.Bytes()
}

func TestGoldenKernels(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			sum := sha256.Sum256(runGoldenCase(t, c))
			got[c.name()] = hex.EncodeToString(sum[:])
		})
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixtures missing (run with -update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for name, h := range got {
		if want[name] == "" {
			t.Errorf("%s: no golden entry (run with -update-golden)", name)
			continue
		}
		if want[name] != h {
			t.Errorf("%s: compressed bytes changed:\n  want %s\n  got  %s", name, want[name], h)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden entry no longer exercised", name)
		}
	}
}
