package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

// specialValues are the inputs and thresholds where a slice's lookup and
// a split's comparison could part ways.
var specialValues = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}

// randomTree grows a tree of random shape over nf features, whose
// thresholds repeat (small integers), hit the special values now and
// then, and otherwise are arbitrary.
func randomTree(rng *rand.Rand, nf, depth int) *TreeNode {
	if depth == 0 || rng.Intn(4) == 0 {
		v := rng.NormFloat64() * 10
		switch rng.Intn(16) {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = math.Inf(1 - 2*rng.Intn(2))
		}
		return &TreeNode{Leaf: true, Value: v}
	}
	t := float64(rng.Intn(9) - 4)
	switch rng.Intn(6) {
	case 0:
		t = specialValues[rng.Intn(len(specialValues))]
	case 1:
		t = rng.NormFloat64() * 3
	}
	return &TreeNode{
		Feature:   rng.Intn(nf),
		Threshold: t,
		Left:      randomTree(rng, nf, depth-1),
		Right:     randomTree(rng, nf, depth-1),
	}
}

// checkSlice holds Slice(x, j).At(v) bit-equal to Predict with x[j] = v
// at every break, either side of it, the special values and random v.
func checkSlice(t *testing.T, rng *rand.Rand, f *RandomForest, x []float64, j int) {
	t.Helper()
	s, ok := f.Slice(x, j)
	if !ok {
		t.Fatalf("Slice(x, %d) refused a forest over %d features", j, len(x))
	}
	if len(s.means) != len(s.breaks)+1 {
		t.Fatalf("%d breaks, %d intervals", len(s.breaks), len(s.means))
	}
	probes := append([]float64(nil), specialValues...)
	for _, b := range s.breaks {
		probes = append(probes, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	for range 8 {
		probes = append(probes, rng.NormFloat64()*5)
	}
	at := append([]float64(nil), x...)
	for _, v := range probes {
		at[j] = v
		want, err := f.Predict(at)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.At(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("feature %d at %v: slice %v (%#x), Predict %v (%#x)",
				j, v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzForestSlice: random forests read as a step function of one
// feature answer what Predict answers, bit for bit; a forest with a node
// on a feature the input lacks is refused.
func FuzzForestSlice(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(60), uint8(6))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(12))
	f.Add(uint64(3), uint8(3), uint8(5), uint8(0))
	f.Add(uint64(4), uint8(2), uint8(17), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, nf, trees, depth uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + int(nf%8)
		forest := &RandomForest{Ensemble: make([]*DecisionTree, 1+int(trees%64))}
		for i := range forest.Ensemble {
			forest.Ensemble[i] = &DecisionTree{Root: randomTree(rng, n, int(depth%13))}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(9) - 4)
			if rng.Intn(8) == 0 {
				x[i] = specialValues[rng.Intn(len(specialValues))]
			}
		}
		j := rng.Intn(n)
		checkSlice(t, rng, forest, x, j)
		if _, ok := forest.Slice(x, n); ok {
			t.Fatalf("Slice accepted feature %d of %d", n, n)
		}
		// a shorter input leaves some node's feature out of reach of x
		// whenever a tree splits on the last feature anywhere j can lead
		if n > 1 && j < n-1 {
			if _, ok := forest.Slice(x[:n-1], j); ok && splitsOn(forest, n-1) {
				checkSliceShort(t, forest, x[:n-1], j)
			}
		}
	})
}

// splitsOn reports whether any tree of f has a split on feature k.
func splitsOn(f *RandomForest, k int) bool {
	var walk func(n *TreeNode) bool
	walk = func(n *TreeNode) bool {
		return !n.Leaf && (n.Feature == k || walk(n.Left) || walk(n.Right))
	}
	for _, t := range f.Ensemble {
		if walk(t.Root) {
			return true
		}
	}
	return false
}

// checkSliceShort: a slice accepted over an input that lacks a feature
// some tree splits on must never reach that split, so Predict succeeds
// at every break and agrees with it.
func checkSliceShort(t *testing.T, f *RandomForest, x []float64, j int) {
	t.Helper()
	s, _ := f.Slice(x, j)
	at := append([]float64(nil), x...)
	for _, v := range append(append([]float64(nil), s.breaks...), specialValues...) {
		at[j] = v
		want, err := f.Predict(at)
		if err != nil {
			t.Fatalf("Slice accepted an input Predict refuses at %v: %v", v, err)
		}
		if got := s.At(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("short input at %v: slice %v, Predict %v", v, got, want)
		}
	}
}

// TestForestSliceFittedForest: rahman2023's forest shape, fitted, read
// along every feature.
func TestForestSliceFittedForest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([][]float64, 120)
	y := make([]float64, len(x))
	for i := range x {
		x[i] = make([]float64, 8)
		for c := range x[i] {
			x[i][c] = rng.NormFloat64()
		}
		y[i] = 1 + math.Abs(3*x[i][7]+x[i][0]*x[i][1])
	}
	f := &RandomForest{Trees: 60, MaxDepth: 12, Seed: 23}
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for j := range 8 {
		checkSlice(t, rng, f, x[rng.Intn(len(x))], j)
	}
	if _, ok := (&RandomForest{}).Slice(x[0], 0); ok {
		t.Error("an unfitted forest sliced")
	}
	if _, ok := f.Slice(x[0], -1); ok {
		t.Error("feature -1 sliced")
	}
}
