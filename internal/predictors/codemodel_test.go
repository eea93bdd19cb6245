package predictors

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/compressor/sz3"
	"repro/internal/hurricane"
	"repro/internal/pressio"
	"repro/internal/stats"
)

// The code-model metrics as they were while a code histogram was a map and
// Huffman lengths came off a container/heap priority queue: jin_model's
// analysis and zperf_model's huffman and fixed coders. They live here only,
// as what TestCodeModelsMatchMapAndHeapReference compares the plugins with.

type refNode struct {
	weight      uint64
	left, right *refNode
	order       int
}

type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refNode)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// referenceMeanCodeLength seeds the heap in symbol order, so ties resolve
// by (weight, creation order), and sums count × depth over the leaves.
func referenceMeanCodeLength(counts map[int32]uint64) float64 {
	if len(counts) < 2 {
		return float64(len(counts))
	}
	symbols := make([]int32, 0, len(counts))
	for s := range counts {
		symbols = append(symbols, s)
	}
	sort.Slice(symbols, func(i, j int) bool { return symbols[i] < symbols[j] })
	var h refHeap
	for _, s := range symbols {
		h = append(h, &refNode{weight: counts[s], order: len(h)})
	}
	order := len(h)
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refNode)
		b := heap.Pop(&h).(*refNode)
		heap.Push(&h, &refNode{weight: a.weight + b.weight, left: a, right: b, order: order})
		order++
	}
	var bits func(n *refNode, depth uint64) uint64
	bits = func(n *refNode, depth uint64) uint64 {
		if n.left == nil {
			return n.weight * depth
		}
		return bits(n.left, depth+1) + bits(n.right, depth+1)
	}
	return float64(bits(h[0], 0)) / float64(h[0].weight)
}

func referenceJin(m *JinModel, in *pressio.Data) float64 {
	hist, outliers, n := lorenzoCodeHistogram(stats.Float64Of(in), in.Dims(), m.abs(), m.bins(), newFastIterator(in.Dims()), true)
	counts := map[int32]uint64{}
	for i, s := range hist.Symbols {
		counts[s] = hist.Counts[i]
	}
	elemBits := in.DType().Size() * 8
	outFrac := float64(outliers) / float64(n)
	headerBits := float64(len(counts)*5*8) / float64(n)
	estBits := ((1-outFrac)*referenceMeanCodeLength(counts)+outFrac*float64(elemBits+1))*0.90 + headerBits
	return math.Max(float64(elemBits)/estBits, 1)
}

func referenceZperfCoders(m *ZperfModel, in *pressio.Data) float64 {
	sample := stats.Float64Of(in)[:int(float64(in.Len())*m.fraction())]
	step := 2 * m.abs()
	hist := map[int32]uint64{}
	var outliers uint64
	quantize := func(diff float64) {
		if c := math.Round(diff / step); math.Abs(c) >= 32768 {
			outliers++
		} else {
			hist[int32(c)]++
		}
	}
	switch m.predictor() {
	case "regression":
		q := &sz3.Quantizer{Abs: m.abs(), Bins: 65536, Cast: sz3.CastFloat64}
		codes, outs, _ := sz3.PredictQuantizeRegression(sample, []int{len(sample)}, q)
		for _, c := range codes {
			if c != sz3.OutlierCode {
				hist[c]++
			}
		}
		outliers += uint64(len(outs))
	case "mean":
		mean := stats.Mean(sample)
		for _, v := range sample {
			quantize(v - mean)
		}
	case "interp":
		for i, v := range sample {
			var pred float64
			if i >= 1 && i+1 < len(sample) && i%2 == 1 {
				pred = (sample[i-1] + sample[i+1]) / 2
			} else if i >= 2 {
				pred = sample[i-2]
			}
			quantize(v - pred)
		}
	default:
		prev := 0.0
		for _, v := range sample {
			quantize(v - prev)
			prev = v
		}
	}
	bitsPerSym := referenceMeanCodeLength(hist)
	if m.coder() == "fixed" {
		bitsPerSym = 1
		if len(hist) > 1 {
			bitsPerSym = math.Ceil(math.Log2(float64(len(hist))))
		}
	}
	elemBits := in.DType().Size() * 8
	outFrac := float64(outliers) / float64(len(sample))
	est := ((1-outFrac)*bitsPerSym + outFrac*float64(elemBits+1)) * 0.90
	return math.Max(float64(elemBits)/est, 1)
}

// One round of Table 2 — the 13 fields at its two bounds: the ordered
// histogram and the two-queue merge must leave every code-model feature
// bit for bit where the maps and the heap put it.
func TestCodeModelsMatchMapAndHeapReference(t *testing.T) {
	dims := []int{32, 32, 64}
	if testing.Short() {
		dims = []int{16, 32, 32}
	}
	for _, name := range hurricane.FieldNames {
		in, err := hurricane.Field(name, 3, dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []float64{1e-6, 1e-4} {
			opts := optsWith(pressio.OptAbs, abs)
			opts.Set(OptJinFastIterator, true)
			jin := &JinModel{}
			jin.SetOptions(opts)
			jin.BeginCompress(in)
			got, _ := jin.Results().GetFloat("jin_model:cr")
			if want := referenceJin(jin, in); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s abs=%g: jin_model:cr = %v, reference %v", name, abs, got, want)
			}
			for _, coder := range []string{"huffman", "fixed"} {
				for _, predictor := range []string{"lorenzo", "interp", "regression", "mean"} {
					opts.Set(OptZperfCoder, coder)
					opts.Set(OptZperfPredictor, predictor)
					zp := &ZperfModel{}
					if err := zp.SetOptions(opts); err != nil {
						t.Fatal(err)
					}
					zp.BeginCompress(in)
					got, _ := zp.Results().GetFloat("zperf_model:cr")
					if want := referenceZperfCoders(zp, in); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s abs=%g %s/%s: zperf_model:cr = %v, reference %v", name, abs, predictor, coder, got, want)
					}
				}
			}
		}
	}
}

// zperf_model's entropy coder sums -p·log2(p) over the code counts in
// floating point; while they came out of a map the sum, and the feature,
// depended on the iteration order of the run. Every stage selection is
// held to the same answer, not only the one that showed it.
func TestZperfIsTheSameEveryRun(t *testing.T) {
	in, err := hurricane.Field("U", 3, []int{64, 64, 32})
	if err != nil {
		t.Fatal(err)
	}
	runs := 200
	if testing.Short() {
		runs = 25
	}
	for _, coder := range []string{"entropy", "huffman", "fixed"} {
		for _, predictor := range []string{"lorenzo", "interp", "regression", "mean"} {
			opts := optsWith(pressio.OptAbs, 1e-4)
			opts.Set(OptZperfCoder, coder)
			opts.Set(OptZperfPredictor, predictor)
			seen := map[string]int{}
			for run := 0; run < runs; run++ {
				zp := &ZperfModel{}
				if err := zp.SetOptions(opts); err != nil {
					t.Fatal(err)
				}
				zp.BeginCompress(in)
				r := zp.Results()
				cr, _ := r.GetFloat("zperf_model:cr")
				bits, _ := r.GetFloat("zperf_model:bits_per_value")
				seen[fmt.Sprintf("%x/%x", math.Float64bits(cr), math.Float64bits(bits))]++
			}
			if len(seen) != 1 {
				t.Errorf("%s/%s: %d distinct results in %d evaluations of one buffer", predictor, coder, len(seen), runs)
			}
		}
	}
}
