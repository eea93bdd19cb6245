package mlkit

import (
	"bytes"
	"encoding/gob"
	"sort"
)

// TreeNode is one node of a CART regression tree. Exported fields keep the
// structure gob-serializable for predictor state save/restore.
type TreeNode struct {
	// Leaf nodes predict Value.
	Leaf  bool
	Value float64
	// Internal nodes route on Feature < Threshold.
	Feature   int
	Threshold float64
	Left      *TreeNode
	Right     *TreeNode
}

// DecisionTree is a CART regression tree grown by variance reduction.
type DecisionTree struct {
	// MaxDepth bounds tree depth (default 8).
	MaxDepth int
	// MinSamples is the minimum samples to split a node (default 4).
	MinSamples int
	// Features restricts each split to a random subset of this many
	// features (0 = all); used by RandomForest. The subset is drawn with
	// the tree's rng.
	Features int

	Root *TreeNode

	rng *splitRNG
}

// splitRNG is a tiny deterministic generator so tree growth is
// reproducible without importing math/rand state into gob payloads.
type splitRNG struct{ state uint64 }

func (r *splitRNG) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *splitRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (t *DecisionTree) maxDepth() int {
	if t.MaxDepth <= 0 {
		return 8
	}
	return t.MaxDepth
}

func (t *DecisionTree) minSamples() int {
	if t.MinSamples <= 0 {
		return 4
	}
	return t.MinSamples
}

// Fit implements Model.
func (t *DecisionTree) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return ErrBadInput
	}
	if t.rng == nil {
		t.rng = &splitRNG{state: 0x9e3779b97f4a7c15}
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.Root = t.grow(x, y, idx, 0)
	return nil
}

// SeedRNG sets the deterministic split RNG (used by RandomForest to give
// each tree different feature subsets).
func (t *DecisionTree) SeedRNG(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	t.rng = &splitRNG{state: seed}
}

func mean(y []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	s := 0.0
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func (t *DecisionTree) grow(x [][]float64, y []float64, idx []int, depth int) *TreeNode {
	if depth >= t.maxDepth() || len(idx) < t.minSamples() {
		return &TreeNode{Leaf: true, Value: mean(y, idx)}
	}
	parentSSE := sse(y, idx)
	if parentSSE <= 1e-12 {
		return &TreeNode{Leaf: true, Value: mean(y, idx)}
	}
	nf := len(x[0])
	candidates := make([]int, nf)
	for i := range candidates {
		candidates[i] = i
	}
	if t.Features > 0 && t.Features < nf {
		// Fisher-Yates prefix with the deterministic rng
		for i := 0; i < t.Features; i++ {
			j := i + t.rng.intn(nf-i)
			candidates[i], candidates[j] = candidates[j], candidates[i]
		}
		candidates = candidates[:t.Features]
	}

	bestFeature, bestThreshold := -1, 0.0
	bestScore := parentSSE
	sorted := make([]int, len(idx))
	for _, f := range candidates {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })
		// incremental split scan: maintain left/right sums
		var lSum, lSq float64
		rSum, rSq := 0.0, 0.0
		for _, i := range sorted {
			rSum += y[i]
			rSq += y[i] * y[i]
		}
		nL := 0
		nR := len(sorted)
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			lSum += y[i]
			lSq += y[i] * y[i]
			rSum -= y[i]
			rSq -= y[i] * y[i]
			nL++
			nR--
			if x[sorted[k]][f] == x[sorted[k+1]][f] {
				continue // cannot split between equal values
			}
			score := (lSq - lSum*lSum/float64(nL)) + (rSq - rSum*rSum/float64(nR))
			if score < bestScore-1e-12 {
				bestScore = score
				bestFeature = f
				bestThreshold = (x[sorted[k]][f] + x[sorted[k+1]][f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &TreeNode{Leaf: true, Value: mean(y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][bestFeature] < bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &TreeNode{Leaf: true, Value: mean(y, idx)}
	}
	return &TreeNode{
		Feature:   bestFeature,
		Threshold: bestThreshold,
		Left:      t.grow(x, y, left, depth+1),
		Right:     t.grow(x, y, right, depth+1),
	}
}

// Predict implements Model.
func (t *DecisionTree) Predict(x []float64) (float64, error) {
	if t.Root == nil {
		return 0, ErrNotFitted
	}
	n := t.Root
	for !n.Leaf {
		if n.Feature >= len(x) {
			return 0, ErrBadInput
		}
		n = n.step(x[n.Feature])
	}
	return n.Value, nil
}

// step is the child a split sends v to: left when v < Threshold.
func (n *TreeNode) step(v float64) *TreeNode {
	if v < n.Threshold {
		return n.Left
	}
	return n.Right
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *DecisionTree) MarshalBinary() ([]byte, error) {
	// encode through an alias type so gob does not re-enter this method
	type plain DecisionTree
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode((*plain)(t))
	return buf.Bytes(), err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *DecisionTree) UnmarshalBinary(b []byte) error {
	type plain DecisionTree
	return gob.NewDecoder(bytes.NewReader(b)).Decode((*plain)(t))
}
