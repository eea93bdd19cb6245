package bench

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// The record as TestRestoreCellsMatchesPerRecordDecode writes and reads
// it: obsZero is the record of an empty Observation and obsTypeDefs what
// every record of this build opens with, the gob type definitions a fresh
// encoder sends ahead of its first value — what its first message has
// over its second.
var obsZero, obsTypeDefs = func() (zero, defs []byte) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	enc.Encode(&Observation{})
	first := buf.Len()
	enc.Encode(&Observation{})
	return buf.Bytes()[:first], buf.Bytes()[:2*first-buf.Len()]
}()

func encodeObservation(ob *Observation) ([]byte, error) { return core.EncodeObservation(ob) }

// cellKey is the checkpoint key of one cell of spec, its parts hashed
// afresh.
func cellKey(spec *Spec, field string, step int, bound float64, compressor string) string {
	return cellKeyOf(compressorPart(compressor, bound),
		datasetPart(field, step, dimsString(spec.Dims)), experimentPart(spec.Replicates))
}

// TestCellKeyGolden pins the checkpoint key of one cell, as cellKey builds
// it and as a collection stores it: if it changes, a resume finds none of
// the cells an earlier build stored.
func TestCellKeyGolden(t *testing.T) {
	spec := &Spec{
		Fields: []string{"P"}, Steps: 1, Dims: []int{32, 32, 64},
		Compressors: []string{"sz3"}, Bounds: []float64{1e-4}, StoreDir: t.TempDir(),
	}
	spec.defaults()
	const want = "cell/d2095e569ca7849d86944c0717e318ba9c6a6ba811aabe429c3e348c599936ef"
	if got := cellKey(spec, "P", 0, 1e-4, "sz3"); got != want {
		t.Errorf("cellKey = %s, want %s", got, want)
	}
	if _, err := Collect(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(spec.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if keys, err := st.Keys("cell/"); err != nil || len(keys) != 1 || keys[0] != want {
		t.Errorf("the collection stored %v (%v), want [%s]", keys, err, want)
	}
}

// table2Spec is the table2 workload's collection: 13 fields × 1 step × 2
// bounds × {sz3, zfp} = 52 cells at 32×32×64.
func table2Spec(dir string) *Spec {
	return &Spec{
		Steps:       1,
		Dims:        []int{32, 32, 64},
		Compressors: []string{"sz3", "zfp"},
		Bounds:      []float64{1e-6, 1e-4},
		StoreDir:    dir,
	}
}

// A resume reads a table2-shaped store at ≤ 12 allocations a record (42
// through encoding/gob's reflective decode): the hand reader allocates the
// Observation's maps and the store its copy of the bytes, and the names are
// interned.
func TestRestoreCellsAllocations(t *testing.T) {
	spec := table2Spec(t.TempDir())
	spec.defaults()
	st, err := store.Open(spec.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for _, comp := range spec.Compressors {
		for _, bound := range spec.Bounds {
			for _, field := range spec.Fields {
				ob := &Observation{
					Field: field, Bound: bound, Compressor: comp, CR: 7.5,
					Features: map[string]float64{}, MetricMS: map[string]float64{"stat": 0.5, "spatial": 1.25},
					CompressMS: 0.3, DecompressMS: 0.2, ByteSize: 32 * 32 * 64 * 4, Replicates: 1,
				}
				for f := 0; f < 15; f++ {
					ob.Features[fmt.Sprintf("metric:feature_%02d", f)] = float64(f) / 3
				}
				raw, err := core.EncodeObservation(ob)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Put(cellKey(spec, field, 0, bound, comp), raw); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
	}
	cells, _, err := restoreCells(st)
	if err != nil || len(cells) != n {
		t.Fatalf("restored %d of %d cells: %v", len(cells), n, err)
	}
	if per := testing.AllocsPerRun(10, func() { restoreCells(st) }) / float64(n); per > 12 {
		t.Errorf("restoring %d records allocates %.1f times a record, want ≤ 12", n, per)
	}
}

// BenchmarkCollectResume is the in-process twin of the table2 workload's
// p50_ms: one resume of a table2-shaped collection, every cell restored
// from the filled store and none recomputed.
func BenchmarkCollectResume(b *testing.B) {
	spec := table2Spec(b.TempDir())
	res, err := CollectDetailed(context.Background(), spec)
	if err != nil || len(res.Observations) != 52 {
		b.Fatalf("cold collection: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := CollectDetailed(context.Background(), spec)
		if err != nil || res.QueueStats.Skipped != 52 {
			b.Fatalf("resume restored %d of 52 cells: %v", res.QueueStats.Skipped, err)
		}
	}
}
