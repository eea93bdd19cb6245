package mlkit

import (
	"bytes"
	"encoding/gob"
	"math"
	"sort"
)

// RandomForest is a bagged ensemble of CART regression trees with random
// feature subsets per split — the model family at the core of the Rahman
// 2023 (FXRZ) prediction scheme.
type RandomForest struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth bounds each tree (default 10).
	MaxDepth int
	// MinSamples is each tree's split minimum (default 4).
	MinSamples int
	// Seed makes training deterministic (default 1).
	Seed uint64

	Ensemble []*DecisionTree
}

func (f *RandomForest) trees() int {
	if f.Trees <= 0 {
		return 50
	}
	return f.Trees
}

// Fit implements Model: each tree trains on a bootstrap resample with
// sqrt(p) feature subsets per split.
func (f *RandomForest) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return ErrBadInput
	}
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	rng := &splitRNG{state: seed}
	nf := len(x[0])
	sub := int(math.Sqrt(float64(nf)) + 0.5)
	if sub < 1 {
		sub = 1
	}
	f.Ensemble = make([]*DecisionTree, f.trees())
	n := len(x)
	for t := range f.Ensemble {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		tree := &DecisionTree{
			MaxDepth:   f.maxDepth(),
			MinSamples: f.MinSamples,
			Features:   sub,
		}
		tree.SeedRNG(rng.next())
		if err := tree.Fit(bx, by); err != nil {
			return err
		}
		f.Ensemble[t] = tree
	}
	return nil
}

func (f *RandomForest) maxDepth() int {
	if f.MaxDepth <= 0 {
		return 10
	}
	return f.MaxDepth
}

// Predict implements Model: the ensemble mean.
func (f *RandomForest) Predict(x []float64) (float64, error) {
	if len(f.Ensemble) == 0 {
		return 0, ErrNotFitted
	}
	s := 0.0
	for _, t := range f.Ensemble {
		v, err := t.Predict(x)
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s / float64(len(f.Ensemble)), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *RandomForest) MarshalBinary() ([]byte, error) {
	// encode through an alias type so gob does not re-enter this method
	type plain RandomForest
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode((*plain)(f))
	return buf.Bytes(), err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (f *RandomForest) UnmarshalBinary(b []byte) error {
	type plain RandomForest
	return gob.NewDecoder(bytes.NewReader(b)).Decode((*plain)(f))
}

// AugmentByInterpolation implements FXRZ's data-augmentation trick:
// synthetic training pairs are added by linearly interpolating between
// nearest-neighbour observed (features, target) pairs, cutting the number
// of real compressor runs needed to train. It returns the augmented
// copies appended to the originals.
func AugmentByInterpolation(x [][]float64, y []float64, factor int, seed uint64) ([][]float64, []float64) {
	if factor < 1 || len(x) < 2 {
		return x, y
	}
	rng := &splitRNG{state: seed | 1}
	ax := append([][]float64(nil), x...)
	ay := append([]float64(nil), y...)
	n := len(x)
	for k := 0; k < factor*n; k++ {
		i := rng.intn(n)
		j := nearestOther(x, i)
		t := float64(rng.intn(1000)) / 1000
		row := make([]float64, len(x[i]))
		for c := range row {
			row[c] = x[i][c]*(1-t) + x[j][c]*t
		}
		ax = append(ax, row)
		ay = append(ay, y[i]*(1-t)+y[j]*t)
	}
	return ax, ay
}

// nearestOther finds the closest row to i by Euclidean distance.
func nearestOther(x [][]float64, i int) int {
	best := -1
	bestD := math.Inf(1)
	for j := range x {
		if j == i {
			continue
		}
		d := 0.0
		for c := range x[i] {
			diff := x[i][c] - x[j][c]
			d += diff * diff
		}
		if d < bestD {
			bestD = d
			best = j
		}
	}
	if best < 0 {
		return i
	}
	return best
}

// ForestSlice is a forest read as a step function of one feature j, every
// other feature held where Slice found it: between two consecutive split
// thresholds on j every tree ends in the same leaf, so the forest's
// prediction is one number per interval.
type ForestSlice struct {
	// breaks are the distinct split thresholds on j, ascending
	breaks []float64
	// means[k] is the prediction for a value v with breaks[k-1] ≤ v <
	// breaks[k]: len(breaks)+1 intervals
	means []float64
}

// At returns the forest's prediction with feature j at v, bit-identical
// to Predict. A split sends v left when v < t, so v lies in the interval
// of the first break above it; a NaN, which goes right at every split,
// lies past every break, and −0 where +0 does.
func (s ForestSlice) At(v float64) float64 {
	return s.means[sort.Search(len(s.breaks), func(k int) bool { return s.breaks[k] > v })]
}

// Slice reads the forest at x as a step function of feature j: both
// branches are followed at splits on j, x is followed at every other
// split. Each interval's prediction is its trees' leaf values summed in
// tree order and divided by the ensemble size, as Predict sums them, so
// At is bit-identical to Predict. It reports false for an unfitted
// forest, a j outside x, and a forest with a node (at any value of j)
// on a feature x does not have: the caller then walks the forest.
func (f *RandomForest) Slice(x []float64, j int) (ForestSlice, bool) {
	if len(f.Ensemble) == 0 || j < 0 || j >= len(x) {
		return ForestSlice{}, false
	}
	var breaks []float64
	for _, t := range f.Ensemble {
		if t.Root == nil || !collectBreaks(t.Root, x, j, &breaks) {
			return ForestSlice{}, false
		}
	}
	sort.Float64s(breaks)
	n := 0
	for _, b := range breaks {
		if n == 0 || b != breaks[n-1] { // −0 == +0: one break
			breaks[n] = b
			n++
		}
	}
	s := ForestSlice{breaks: breaks[:n:n], means: make([]float64, n+1)}
	for _, t := range f.Ensemble {
		s.addLeaves(t.Root, x, j, 0, n+1)
	}
	for k := range s.means {
		s.means[k] /= float64(len(f.Ensemble))
	}
	return s, true
}

// collectBreaks appends the thresholds of n's splits on j that a value
// of j can reach, and reports false at a node on a feature x lacks. A NaN
// threshold sends every value right, so it is no break.
func collectBreaks(n *TreeNode, x []float64, j int, breaks *[]float64) bool {
	for !n.Leaf {
		switch {
		case n.Feature >= len(x):
			return false
		case n.Feature != j:
			n = n.step(x[n.Feature])
		case math.IsNaN(n.Threshold):
			n = n.Right
		default:
			*breaks = append(*breaks, n.Threshold)
			if !collectBreaks(n.Left, x, j, breaks) {
				return false
			}
			n = n.Right
		}
	}
	return true
}

// addLeaves adds n's leaf value to the means of intervals [lo, hi): at a
// split on j whose threshold is breaks[i], intervals up to i go left.
func (s *ForestSlice) addLeaves(n *TreeNode, x []float64, j, lo, hi int) {
	for !n.Leaf {
		if n.Feature != j {
			n = n.step(x[n.Feature])
			continue
		}
		if math.IsNaN(n.Threshold) {
			n = n.Right
			continue
		}
		i := sort.SearchFloat64s(s.breaks, n.Threshold)
		if lo <= i {
			s.addLeaves(n.Left, x, j, lo, min(hi, i+1))
		}
		if lo = max(lo, i+1); lo >= hi {
			return
		}
		n = n.Right
	}
	for k := lo; k < hi; k++ {
		s.means[k] += n.Value
	}
}
