package huffman

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

func roundTrip(t *testing.T, data []int32) {
	t.Helper()
	buf, err := Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !slices.Equal(got, data) {
		t.Fatalf("round trip of %d elements came back different (%d elements)", len(data), len(got))
	}
}

// histOf builds the ordered histogram of a symbol→count map.
func histOf(counts map[int32]uint64) Histogram {
	var h Histogram
	for s := range counts {
		h.Symbols = append(h.Symbols, s)
	}
	slices.Sort(h.Symbols)
	for _, s := range h.Symbols {
		h.Counts = append(h.Counts, counts[s])
	}
	return h
}

// codeLengthsOf returns the code length of every symbol of h.
func codeLengthsOf(h Histogram) []uint8 { return slices.Clone(new(scratch).codeLengths(h)) }

func TestRoundTripEmpty(t *testing.T)  { roundTrip(t, []int32{}) }
func TestRoundTripSingle(t *testing.T) { roundTrip(t, []int32{42}) }
func TestRoundTripUniformSymbol(t *testing.T) {
	roundTrip(t, []int32{7, 7, 7, 7, 7, 7, 7, 7})
}
func TestRoundTripNegativeSymbols(t *testing.T) {
	roundTrip(t, []int32{-1, -2, 3, -1, 0, math.MinInt32, math.MaxInt32})
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]int32, 10000)
	for i := range data {
		// geometric-ish distribution like quantization codes
		v := int32(0)
		for rng.Float64() < 0.7 {
			v++
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		data[i] = v
	}
	roundTrip(t, data)
}

func TestRoundTripQuick(t *testing.T) {
	f := func(data []int32) bool {
		// narrow the alphabet so codes are exercised, not the far list
		for i := range data {
			data[i] = data[i] % 50
		}
		buf, err := Encode(data)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		return err == nil && slices.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCompressionBeatsFixedWidth(t *testing.T) {
	// Highly skewed data should code well below 32 bits/symbol and below
	// the entropy+1 bound.
	data := make([]int32, 100000)
	rng := rand.New(rand.NewSource(2))
	for i := range data {
		if rng.Float64() < 0.9 {
			data[i] = 0
		} else {
			data[i] = int32(rng.Intn(16))
		}
	}
	buf, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	bitsPerSym := float64(len(buf)*8) / float64(len(data))
	if bitsPerSym > 2.0 {
		t.Errorf("skewed data coded at %.2f bits/symbol, expected < 2", bitsPerSym)
	}
}

func TestMeanCodeLengthWithinEntropyPlusOne(t *testing.T) {
	h := Histogram{Symbols: []int32{0, 1, 2, 3, 4}, Counts: []uint64{900, 50, 30, 15, 5}}
	var total float64
	for _, c := range h.Counts {
		total += float64(c)
	}
	var entropy float64
	for _, c := range h.Counts {
		p := float64(c) / total
		entropy -= p * math.Log2(p)
	}
	mean := MeanCodeLength(h)
	if mean < entropy || mean > entropy+1 {
		t.Errorf("mean code length %.4f outside [H, H+1] = [%.4f, %.4f]", mean, entropy, entropy+1)
	}
}

func TestMeanCodeLengthEmpty(t *testing.T) {
	if MeanCodeLength(Histogram{}) != 0 {
		t.Error("empty histogram should have zero mean code length")
	}
}

func TestCodeLengthsKraft(t *testing.T) {
	// Kraft equality must hold for a complete prefix code.
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 300; i++ {
		h.Symbols = append(h.Symbols, int32(i))
		h.Counts = append(h.Counts, uint64(rng.Intn(10000)+1))
	}
	var kraft float64
	for _, l := range codeLengthsOf(h) {
		kraft += math.Pow(2, -float64(l))
	}
	if math.Abs(kraft-1.0) > 1e-9 {
		t.Errorf("Kraft sum = %v, want 1", kraft)
	}
}

func TestCodeLengthsSingleSymbol(t *testing.T) {
	lengths := codeLengthsOf(Histogram{Symbols: []int32{5}, Counts: []uint64{100}})
	if len(lengths) != 1 || lengths[0] != 1 {
		t.Errorf("single-symbol code lengths = %v, want [1]", lengths)
	}
}

// The construction this package used until the two-queue merge replaced
// it, kept as the reference: a container/heap priority queue keyed by
// (weight, creation order) with the leaves created in symbol order, a
// recursive walk for the depths, and canonical codes from a comparison
// sort of (length, symbol) pairs.

type refNode struct {
	weight      uint64
	symbol      int32
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

func refCodeLengths(counts map[int32]uint64) map[int32]uint {
	if len(counts) == 1 {
		for s := range counts {
			return map[int32]uint{s: 1}
		}
	}
	lengths := make(map[int32]uint, len(counts))
	if len(counts) == 0 {
		return lengths
	}
	symbols := make([]int32, 0, len(counts))
	for s := range counts {
		symbols = append(symbols, s)
	}
	sort.Slice(symbols, func(i, j int) bool { return symbols[i] < symbols[j] })
	h := make(refHeap, 0, len(symbols))
	order := 0
	for _, s := range symbols {
		h = append(h, &refNode{weight: counts[s], symbol: s, order: order})
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*refNode)
		b := heap.Pop(&h).(*refNode)
		heap.Push(&h, &refNode{weight: a.weight + b.weight, left: a, right: b, order: order})
		order++
	}
	var walk func(n *refNode, depth uint)
	walk = func(n *refNode, depth uint) {
		if n.left == nil {
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(h[0], 0)
	return lengths
}

// refEncode is the reference encoder: the stream layout of Encode, with
// the table from refCodeLengths and the payload written serially.
func refEncode(data []int32) ([]byte, error) {
	counts := map[int32]uint64{}
	for _, s := range data {
		counts[s]++
	}
	lengths := refCodeLengths(counts)
	type pair struct {
		s int32
		l uint
	}
	pairs := make([]pair, 0, len(lengths))
	for s, l := range lengths {
		pairs = append(pairs, pair{s, l})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].l != pairs[j].l {
			return pairs[i].l < pairs[j].l
		}
		return pairs[i].s < pairs[j].s
	})
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(pairs)))
	codes := map[int32]packedCode{}
	var code uint64
	var prevLen uint
	for _, p := range pairs {
		if p.l > maxCodeLen {
			return nil, fmt.Errorf("code length %d exceeds max %d", p.l, maxCodeLen)
		}
		code <<= p.l - prevLen
		codes[p.s] = packCode(code, p.l)
		code++
		prevLen = p.l
		out = binary.LittleEndian.AppendUint32(out, uint32(p.s))
		out = append(out, byte(p.l))
	}
	var w bitstream.Writer
	for _, s := range data {
		w.WriteBits(codes[s]>>6, uint(codes[s]&63))
	}
	payload := w.Bytes()
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...), nil
}

// differentialHistograms are the alphabets on which the two constructions
// are compared: the tie-heavy ones are where an order of merging other
// than the heap's shows.
func differentialHistograms() map[string]map[int32]uint64 {
	rng := rand.New(rand.NewSource(22))
	cases := map[string]map[int32]uint64{
		"one symbol":  {5: 100},
		"two symbols": {-3: 1, 9: 1000},
		"negative":    {math.MinInt32: 3, -70000: 1, -2: 9, -1: 9, 0: 40, 1: 9},
		"sentinel":    {-3: 10, -2: 80, -1: 300, 0: 900, 1: 310, 2: 77, 3: 12, math.MaxInt32: 5},
		"zero counts": {1: 0, 2: 0, 3: 4, 4: 1, 5: 0},
	}
	ties := map[int32]uint64{}
	for s := int32(0); s < 30000; s++ {
		ties[s-15000] = uint64(1 + rng.Intn(4))
	}
	cases["heavy ties"] = ties
	for _, n := range []int32{2, 3, 255, 256, 257, 1000} {
		equal := map[int32]uint64{}
		for s := int32(0); s < n; s++ {
			equal[s*7] = 12
		}
		cases[fmt.Sprintf("all equal %d", n)] = equal
	}
	// Fibonacci counts make the deepest tree an alphabet can have; 40
	// symbols stay under maxCodeLen, 70 go over
	for _, n := range []int{40, 70} {
		fib := map[int32]uint64{}
		a, b := uint64(1), uint64(1)
		for s := 0; s < n; s++ {
			fib[int32(s)] = a
			a, b = b, a+b
		}
		cases[fmt.Sprintf("fibonacci %d", n)] = fib
	}
	skew := map[int32]uint64{}
	for s := int32(0); s < 5000; s++ {
		skew[s*3-7000] = uint64(1 + rng.Intn(1<<uint(rng.Intn(20))))
	}
	cases["random skew"] = skew
	return cases
}

func TestCodeLengthsMatchHeapReference(t *testing.T) {
	for name, counts := range differentialHistograms() {
		h := histOf(counts)
		got, want := codeLengthsOf(h), refCodeLengths(counts)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lengths, reference has %d", name, len(got), len(want))
		}
		bad := 0
		for i, s := range h.Symbols {
			if uint(got[i]) != want[s] {
				if bad++; bad <= 3 {
					t.Errorf("%s: symbol %d (count %d) has length %d, reference %d", name, s, h.Counts[i], got[i], want[s])
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d of %d lengths differ from the reference", name, bad, len(got))
		}
	}
}

// streamOf spreads a histogram's symbols over a stream, most of each
// symbol's occurrences capped so the stream stays small.
func streamOf(counts map[int32]uint64) []int32 {
	var data []int32
	h := histOf(counts)
	for i, s := range h.Symbols {
		for c := uint64(0); c < min(h.Counts[i], 50); c++ {
			data = append(data, s)
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	return data
}

func TestEncodeMatchesReferenceEncoder(t *testing.T) {
	streams := map[string][]int32{"empty": {}}
	for name, counts := range differentialHistograms() {
		streams[name] = streamOf(counts)
	}
	// Fibonacci run lengths: the deepest tree a stream of this size has,
	// with codes past the decoder's lookup table
	var deep []int32
	a, b := 1, 1
	for s := int32(0); s < 24; s++ {
		for c := 0; c < a; c++ {
			deep = append(deep, s)
		}
		a, b = b, a+b
	}
	streams["fibonacci runs"] = deep
	for name, data := range streams {
		want, err := refEncode(data)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := Encode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the reference encoder's %d", name, len(got), len(want))
		}
		roundTrip(t, data)
	}
}

func TestOverlongCodeIsAnError(t *testing.T) {
	counts := differentialHistograms()["fibonacci 70"]
	if _, err := NewEncoder(histOf(counts)); err == nil {
		t.Errorf("NewEncoder built a table with a %d-bit code; the limit is %d", slices.Max(codeLengthsOf(histOf(counts))), maxCodeLen)
	}
}

func TestHistogramInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	streams := map[string][]int32{
		"empty":      {},
		"far apart":  {-1, -2, 3, -1, 0, math.MinInt32, math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32},
		"clustered":  make([]int32, 40000),
		"sentinel":   make([]int32, 40000),
		"everywhere": make([]int32, 9000),
	}
	for i := range streams["clustered"] {
		streams["clustered"][i] = int32(rng.NormFloat64() * 300)
		streams["sentinel"][i] = int32(rng.NormFloat64() * 4)
		if i%97 == 0 {
			streams["sentinel"][i] = math.MaxInt32
		}
	}
	for i := range streams["everywhere"] {
		streams["everywhere"][i] = int32(rng.Uint32()) >> uint(rng.Intn(3)*8)
	}
	for name, data := range streams {
		counts := map[int32]uint64{}
		for _, s := range data {
			counts[s]++
		}
		want := histOf(counts)
		if got := HistogramInt32(data); !slices.Equal(got.Symbols, want.Symbols) || !slices.Equal(got.Counts, want.Counts) {
			t.Errorf("%s: histogram of %d symbols differs from the counted one of %d", name, got.Len(), want.Len())
		}
	}
}

// allocsOf reports what one call of f allocates once the pools are warm.
func allocsOf(t *testing.T, f func()) (allocs float64, bytes uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	allocs = testing.AllocsPerRun(20, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 20 {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / 20
}

func TestEncoderTableIsSizedToTheBulk(t *testing.T) {
	// sz3's shape at a loose bound: a handful of codes and the outlier
	// sentinel 2^31 above them
	h := Histogram{
		Symbols: []int32{-3, -2, -1, 0, 1, 2, 3, math.MaxInt32},
		Counts:  []uint64{10, 80, 300, 900, 310, 77, 12, 5},
	}
	allocs, bytes := allocsOf(t, func() {
		if _, err := NewEncoder(h); err != nil {
			t.Fatal(err)
		}
	})
	if bytes >= 64<<10 {
		t.Errorf("an 8-symbol encoder allocates %d bytes (%v allocs); one far symbol must not size the table", bytes, allocs)
	}
	roundTrip(t, streamOf(differentialHistograms()["sentinel"]))
}

func TestWideAlphabetBuildsInFlatArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for s := int32(0); s < 30000; s++ {
		h.Symbols = append(h.Symbols, s-15000)
		h.Counts = append(h.Counts, uint64(1+rng.Intn(1+int(s%400))))
	}
	h.Symbols, h.Counts = append(h.Symbols, math.MaxInt32), append(h.Counts, 40)
	allocs, bytes := allocsOf(t, func() {
		if _, err := NewEncoder(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 || bytes >= 3<<19 {
		t.Errorf("a %d-symbol encoder costs %v allocs and %d bytes; want <= 16 and < 1.5 MiB", h.Len(), allocs, bytes)
	}
	if allocs, _ := allocsOf(t, func() { MeanCodeLength(h) }); allocs != 0 {
		t.Errorf("MeanCodeLength allocates %v times on a warm pool, want 0", allocs)
	}
}

// validStream is Encode's output for a stream whose table has two lengths.
func validStream(t testing.TB) []byte {
	buf, err := Encode([]int32{1, 2, 3, 1, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// stream assembles a table and a payload the way Encode lays them out.
func stream(table [][2]int32, count uint64, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(table)))
	for _, e := range table {
		out = binary.LittleEndian.AppendUint32(out, uint32(e[0]))
		out = append(out, byte(e[1]))
	}
	out = binary.LittleEndian.AppendUint64(out, count)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

func TestDecodeRejectsCorruption(t *testing.T) {
	buf := validStream(t)
	cases := map[string][]byte{
		"empty buffer":                  {},
		"truncated symbol count":        buf[:3],
		"truncated table":               buf[:10],
		"payload one byte short":        buf[:len(buf)-1],
		"no element count":              buf[:4+5*3+4],
		"no payload length":             buf[:4+5*3+8+4],
		"more symbols than bytes":       append(binary.LittleEndian.AppendUint32(nil, 1<<30), buf[4:]...),
		"elements but no symbols":       stream(nil, 3, []byte{0}),
		"payload runs dry":              stream([][2]int32{{1, 1}, {2, 1}}, 9, []byte{0}),
		"code no symbol holds":          stream([][2]int32{{1, 1}, {2, 2}}, 1, []byte{0xC0}),
		"long code no symbol holds":     stream([][2]int32{{1, 1}, {2, 14}}, 1, []byte{0xFF, 0xFF}),
		"payload ends inside long code": stream([][2]int32{{1, 1}, {2, 14}}, 1, []byte{0x80}),
	}
	for name, c := range cases {
		if got, err := Decode(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v, %v; want ErrCorrupt", name, got, err)
		}
	}
}

func TestDecodeRejectsBadLengths(t *testing.T) {
	cases := map[string][][2]int32{
		"zero length":                     {{5, 0}},
		"length 59":                       {{5, 59}},
		"zero length beside a good one":   {{4, 1}, {5, 0}},
		"duplicate symbol, equal lengths": {{5, 1}, {5, 1}},
		"duplicate symbol, two lengths":   {{5, 1}, {6, 2}, {5, 2}},
		"duplicate far apart":             {{math.MinInt32, 2}, {0, 2}, {math.MaxInt32, 2}, {math.MinInt32, 3}},
		"over-subscribed":                 {{1, 1}, {2, 1}, {3, 1}},
		"over-subscribed at depth":        {{1, 1}, {2, 2}, {3, 2}, {4, 2}},
	}
	for name, table := range cases {
		if got, err := Decode(stream(table, 1, []byte{0, 0})); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v, %v; want ErrCorrupt", name, got, err)
		}
	}
	// the parse checks come before the element count is looked at, the
	// code-space check after: an empty payload hides only the second
	for name, want := range map[string]bool{"zero length": false, "duplicate symbol, two lengths": false, "over-subscribed": true} {
		if _, err := Decode(stream(cases[name], 0, nil)); (err == nil) != want {
			t.Errorf("%s with no elements: Decode returned %v", name, err)
		}
	}
}

// A table need not arrive in canonical order: Decode has always ordered it
// itself (once through a map, now by sorting), so a reordered table means
// the same code. Pinned because Encode never writes one.
func TestDecodeAcceptsTableInAnyOrder(t *testing.T) {
	data := streamOf(differentialHistograms()["sentinel"])
	buf, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	nsym := int(binary.LittleEndian.Uint32(buf))
	shuffled := slices.Clone(buf)
	rand.New(rand.NewSource(8)).Shuffle(nsym, func(i, j int) {
		var tmp [5]byte
		a, b := shuffled[4+5*i:][:5], shuffled[4+5*j:][:5]
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
	})
	if bytes.Equal(shuffled, buf) {
		t.Fatal("shuffle left the table in order")
	}
	got, err := Decode(shuffled)
	if err != nil || !slices.Equal(got, data) {
		t.Errorf("Decode of a reordered table: %d elements, %v; want the %d encoded", len(got), err, len(data))
	}
}

// FuzzDecode: no input panics or makes Decode reserve more than the input
// could hold, and what Encode writes comes back. The seeds run under plain
// `go test`.
func FuzzDecode(f *testing.F) {
	f.Add(validStream(f))
	f.Add([]byte{})
	f.Add(stream([][2]int32{{1, 1}, {2, 14}}, 1<<40, []byte{0x80, 0, 0}))
	f.Add(stream([][2]int32{{5, 1}, {6, 2}, {5, 2}}, 4, []byte{0x1B}))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, math.MaxUint32), make([]byte, 40)...))
	for _, name := range []string{"sentinel", "negative", "fibonacci 40", "one symbol"} {
		buf, err := Encode(streamOf(differentialHistograms()[name]))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		out, err := Decode(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || out != nil {
				t.Fatalf("Decode returned %d elements and %v", len(out), err)
			}
		} else if cap(out) > 8*len(buf) {
			t.Fatalf("Decode reserved %d elements for a %d-byte input", cap(out), len(buf))
		}
		// the input read as a symbol stream must survive a round trip
		data := make([]int32, len(buf)/4)
		for i := range data {
			data[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		enc, err := Encode(data)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if back, err := Decode(enc); err != nil || !slices.Equal(back, data) {
			t.Fatalf("round trip of %d elements: %d back, %v", len(data), len(back), err)
		}
	})
}

func TestEncoderRejectsUnknownSymbol(t *testing.T) {
	e, err := NewEncoder(Histogram{Symbols: []int32{1, 2}, Counts: []uint64{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Encode([]int32{1, 2, 99}); err == nil {
		t.Error("Encode accepted symbol missing from the table")
	}
}

func BenchmarkEncode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	data := make([]int32, 65536)
	for i := range data {
		v := int32(0)
		for rng.Float64() < 0.6 {
			v++
		}
		data[i] = v
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode64K(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int32, 65536)
	for i := range data {
		data[i] = int32(rng.Intn(100))
	}
	buf, err := Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
