package predictors

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
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

// referenceJin is jin_model's analysis with its own N-D Lorenzo: element
// strides, every non-empty subset of dimensions in order s = 1..2^nd-1, the
// neighbour added for an odd subset and subtracted for an even one — the
// loop the plugin ran before it read sz3's term table — over a plain index
// walk, into a map.
func referenceJin(m *JinModel, in *pressio.Data) float64 {
	vals, dims := stats.Float64Run(in, 0, in.Len(), nil), in.Dims()
	nd := len(dims)
	str := make([]int, nd)
	acc := 1
	for i := nd - 1; i >= 0; i-- {
		str[i] = acc
		acc *= dims[i]
	}
	step := 2 * m.abs()
	half := float64(m.bins() / 2)
	counts := map[int32]uint64{}
	var outliers, n uint64
	coords := make([]int, nd)
	for idx := range vals {
		for d, t := 0, idx; d < nd; d++ {
			coords[d] = t / str[d]
			t %= str[d]
		}
		var pred float64
		for s := 1; s < 1<<nd; s++ {
			inRange := true
			var off int
			for d := 0; d < nd; d++ {
				if s&(1<<d) != 0 {
					if coords[d] < 1 {
						inRange = false
						break
					}
					off += str[d]
				}
			}
			if !inRange {
				continue
			}
			if bits.OnesCount(uint(s))%2 == 1 {
				pred += vals[idx-off]
			} else {
				pred -= vals[idx-off]
			}
		}
		n++
		if c := math.Round((vals[idx] - pred) / step); !(math.Abs(c) < half) {
			outliers++
		} else {
			counts[int32(c)]++
		}
	}
	elemBits := in.DType().Size() * 8
	outFrac := float64(outliers) / float64(n)
	headerBits := float64(len(counts)*5*8) / float64(n)
	estBits := ((1-outFrac)*referenceMeanCodeLength(counts)+outFrac*float64(elemBits+1))*0.90 + headerBits
	return math.Max(float64(elemBits)/estBits, 1)
}

func referenceZperfCoders(m *ZperfModel, in *pressio.Data) float64 {
	sample := stats.Float64Run(in, 0, in.Len(), nil)[:int(float64(in.Len())*m.fraction())]
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
		q := &sz3.Quantizer{Abs: m.abs(), Bins: 65536, DType: pressio.DTypeFloat64}
		codes := make([]int32, len(sample))
		outs, _ := sz3.PredictQuantizeRegression(codes, sample, []int{len(sample)}, q)
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
// bit for bit where the maps and the heap put it. jin_model is also held to
// its reference through both iterators, with the cell read as 1-, 2- and
// 3-D, and at a bin budget tight enough to make outliers.
func TestCodeModelsMatchMapAndHeapReference(t *testing.T) {
	dims := []int{32, 32, 64}
	if testing.Short() {
		dims = []int{16, 32, 32}
	}
	shapes := [][]int{dims, {dims[0] * dims[1], dims[2]}, {dims[0] * dims[1] * dims[2]}}
	tightBinsMadeOutliers := false
	for _, name := range hurricane.FieldNames {
		in, err := hurricane.Field(name, 3, dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, abs := range []float64{1e-6, 1e-4} {
			opts := optsWith(pressio.OptAbs, abs)
			for _, shape := range shapes {
				cell := pressio.FromFloat32(in.Float32(), shape...)
				for _, bins := range []int64{sz3.DefaultBins, 512} {
					opts.Set(OptJinQuantBins, bins)
					var want float64
					for _, fast := range []bool{true, false} {
						opts.Set(OptJinFastIterator, fast)
						jin := &JinModel{}
						jin.SetOptions(opts)
						jin.BeginCompress(cell)
						got, _ := jin.Results().GetFloat("jin_model:cr")
						if f, _ := jin.Results().GetFloat("jin_model:outlier_fraction"); f > 0 && bins == 512 {
							tightBinsMadeOutliers = true
						}
						if fast {
							want = referenceJin(jin, cell)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s %v abs=%g bins=%d fast=%v: jin_model:cr = %v, reference %v", name, shape, abs, bins, fast, got, want)
						}
					}
				}
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
	if !tightBinsMadeOutliers {
		t.Error("no cell had an outlier at jin:quant_bins=512: the outlier branch went uncompared")
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

// poisoned is a smooth 8x16x16 float32 cell with bad in two adjacent
// elements of every 29 — often enough that every plugin's sample meets it,
// and side by side so that an infinite bad also makes NaN residuals (a
// Lorenzo prediction adds one neighbour and subtracts the next).
func poisoned(bad float32) *pressio.Data {
	in := pressio.NewFloat32(8, 16, 16)
	for i := range in.Float32() {
		in.Float32()[i] = float32(math.Sin(float64(i) / 31))
		if i%29 == 7 || i%29 == 8 {
			in.Float32()[i] = bad
		}
	}
	return in
}

// A value no quantization code can hold — NaN, ±Inf, or a residual past the
// bin budget — is an outlier to every stage model, never an index: each
// plugin answers a finite ratio of at least 1 on a cell that holds some.
// jin_model indexed its count array with the code of a NaN residual.
func TestStageModelsCountNonFiniteValuesAsOutliers(t *testing.T) {
	type row struct {
		name   string
		metric pressio.Metric
		opts   pressio.Options
		cr     string
	}
	var rows []row
	add := func(name string, m pressio.Metric, cr string, kv ...any) {
		o := optsWith(pressio.OptAbs, 1e-4)
		for i := 0; i < len(kv); i += 2 {
			o.Set(kv[i].(string), kv[i+1])
		}
		rows = append(rows, row{name, m, o, cr})
	}
	add("jin_model/naive", &JinModel{}, "jin_model:cr", OptJinFastIterator, false)
	add("jin_model/fast", &JinModel{}, "jin_model:cr", OptJinFastIterator, true)
	for _, p := range []string{"lorenzo", "interp", "regression", "mean"} {
		add("zperf_model/"+p, &ZperfModel{}, "zperf_model:cr", OptZperfPredictor, p)
	}
	for _, c := range []string{"sz3", "zfp", "szx"} {
		add("khan_surrogate/"+c, &KhanSurrogate{}, "khan_surrogate:cr", OptKhanCompressor, c)
	}
	add("tao_sample", &TaoSample{}, "tao_sample:cr")

	inf := float32(math.Inf(1))
	for name, bad := range map[string]float32{"NaN": float32(math.NaN()), "+Inf": inf, "-Inf": -inf, "1e30": 1e30} {
		in := poisoned(bad)
		for _, r := range rows {
			if err := r.metric.SetOptions(r.opts); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s: panic: %v", r.name, name, p)
					}
				}()
				r.metric.BeginCompress(in)
				res := r.metric.Results()
				if cr, ok := res.GetFloat(r.cr); !ok || !(cr >= 1) || math.IsInf(cr, 0) {
					t.Errorf("%s on %s: %s = %v, want finite and >= 1", r.name, name, r.cr, cr)
				}
				if _, isJin := r.metric.(*JinModel); isJin {
					if f, _ := res.GetFloat("jin_model:outlier_fraction"); !(f > 0) {
						t.Errorf("%s on %s: outlier_fraction = %v, want > 0", r.name, name, f)
					}
				}
			}()
		}
	}
}

// A code count never costs the bin budget: a warm BeginCompress on a
// 32x64x64 float32 cell allocates — beyond the float64 sample zperf_model
// reads, or nothing for jin_model, whose view rides on the buffer — less
// than the 512 KiB a Bins-wide []uint64 is, which each used to allocate
// and zero per call, plus the occupancy marks of the widest span, one bit
// per bin. khan_surrogate's warm predict stays free of anything
// proportional to its sample.
func TestCodeModelAllocatesItsSpanNotTheBinBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled code model at random under the race detector")
	}
	in := pressio.NewFloat32(32, 64, 64)
	for i := range in.Float32() {
		in.Float32()[i] = float32(math.Sin(float64(i) / 29))
	}
	const binsWide, marks = sz3.DefaultBins * 8, sz3.DefaultBins / 8
	zp, jin, khan := &ZperfModel{}, &JinModel{FastIter: true}, &KhanSurrogate{}
	for _, c := range []struct {
		name   string
		metric pressio.Metric
		limit  uint64
	}{
		{"zperf_model", zp, uint64(float64(in.Len())*zp.fraction())*8 + binsWide + marks},
		{"jin_model", jin, binsWide + marks},
		{"khan_surrogate", khan, uint64(float64(in.Len())*khan.fraction())*4 + marks},
	} {
		// the first call fills the pools; a collection between two calls
		// can empty them again, so the leanest of three is the warm one
		c.metric.BeginCompress(in)
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.metric.BeginCompress(in)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= c.limit {
			t.Errorf("%s: a warm BeginCompress allocated %d bytes, want < %d", c.name, least, c.limit)
		}
	}
}

// TestJinModelReadsTheTypedBuffer: jin_model counts its codes over the
// float32 elements in place. With its pools warm, BeginCompress on a
// float32 32×32×64 cell it has never seen allocates less than half the
// cell's bytes: a float64 copy alone is twice them.
func TestJinModelReadsTheTypedBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the pooled code model at random under the race detector")
	}
	fresh := func() *pressio.Data {
		in := pressio.NewFloat32(32, 32, 64)
		for i := range in.Float32() {
			in.Float32()[i] = float32(math.Sin(float64(i) / 29))
		}
		return in
	}
	m := &JinModel{FastIter: true}
	m.BeginCompress(fresh())
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		in := fresh()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.BeginCompress(in)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(fresh().ByteSize() / 2); least >= limit {
		t.Errorf("BeginCompress on a fresh float32 cell allocated %d bytes, want < %d (half the cell)", least, limit)
	}
}

// FuzzCodeModelCount holds tally to a dense window over the same codes,
// whichever way it walks them: n codes (at least one), a share of them
// outliers (outlierShare/255, all at 255), the rest uniform over span bins
// (1 up to the bin budget) placed at offset, taken in two runs. entropy()
// must be bit-equal to EntropyFromCounts over the reference window and to
// a term-by-term sum, histogram() must list the window's non-zero bins in
// code order, and the window and the occupancy marks must be all zero
// after each.
func FuzzCodeModelCount(f *testing.F) {
	// the default bin budget's codes run from -32767 to 32767
	const budget = sz3.DefaultBins - 1
	f.Add(uint64(1), uint16(7856), uint32(budget), uint32(0), uint8(0))    // khan's sample over the widest span
	f.Add(uint64(2), uint16(7856), uint32(3279), uint32(30000), uint8(0))  // narrower than the sample
	f.Add(uint64(3), uint16(1), uint32(1), uint32(0), uint8(0))            // a single code
	f.Add(uint64(4), uint16(600), uint32(200), uint32(9), uint8(255))      // all outliers
	f.Add(uint64(5), uint16(9000), uint32(12), uint32(7), uint8(40))       // counts of hundreds
	f.Add(uint64(6), uint16(2000), uint32(65000), uint32(500), uint8(128)) // half outliers
	f.Add(uint64(7), uint16(63), uint32(64), uint32(64), uint8(0))         // one mark word
	f.Add(uint64(8), uint16(64), uint32(64), uint32(64), uint8(0))         // as wide as the codes are many
	f.Add(uint64(9), uint16(65535), uint32(300), uint32(1), uint8(3))      // counts of a few hundred
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, span, offset uint32, outlierShare uint8) {
		span = 1 + span%budget
		lo := -int32(budget/2) + int32(offset%(budget-span+1))
		rng := splitmix(seed)
		codes := make([]int32, max(int(n), 1))
		for i := range codes {
			if r := rng(); uint8(r) < outlierShare || outlierShare == 255 {
				codes[i] = sz3.OutlierCode
			} else {
				codes[i] = lo + int32((r>>8)%uint64(span))
			}
		}
		ref := make([]uint64, span) // ref[i] counts code lo+i
		for _, c := range codes {
			if c != sz3.OutlierCode {
				ref[c-lo]++
			}
		}
		var symbols []int32
		var counts []uint64
		var total uint64
		for i, c := range ref {
			if c != 0 {
				symbols, counts = append(symbols, lo+int32(i)), append(counts, c)
				total += c
			}
		}
		var termwise float64
		for _, c := range counts {
			p := float64(c) / float64(total)
			termwise -= float64(p * math.Log2(p))
		}

		cm := new(codeModel)
		zeroed := func(after string) {
			for i, c := range cm.window[:cap(cm.window)] {
				if c != 0 {
					t.Fatalf("after %s: window[%d] = %d", after, i, c)
				}
			}
			for w, m := range cm.occupied[:cap(cm.occupied)] {
				if m != 0 {
					t.Fatalf("after %s: occupancy word %d = %#x", after, w, m)
				}
			}
		}
		for pass := 0; pass < 2; pass++ { // the second on the first's storage
			cm.reset(1, sz3.DefaultBins)
			half := len(codes) / 2
			for _, run := range [][]int32{codes[:half], codes[half:]} {
				room := cm.room(len(run))
				copy(room, run)
				cm.take(room)
			}
			h := cm.entropy()
			zeroed("entropy")
			if want := stats.EntropyFromCounts(ref); math.Float64bits(h) != math.Float64bits(want) {
				t.Fatalf("pass %d: entropy %v, EntropyFromCounts over the window %v", pass, h, want)
			}
			if math.Float64bits(h) != math.Float64bits(termwise) {
				t.Fatalf("pass %d: entropy %v, term by term %v", pass, h, termwise)
			}
			hist := cm.histogram()
			zeroed("histogram")
			if !slices.Equal(hist.Symbols, symbols) || !slices.Equal(hist.Counts, counts) {
				t.Fatalf("pass %d: histogram %v %v, window's bins %v %v", pass, hist.Symbols, hist.Counts, symbols, counts)
			}
		}
	})
}
