package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestMain lets gob meet Observation before any other type, as a fresh
// predict-bench process does: gob numbers the types it meets per process,
// in order, and a record carries those numbers, so the record below has
// the bytes a checkpoint store holds whichever tests ran first.
func TestMain(m *testing.M) {
	EncodeObservation(&Observation{})
	os.Exit(m.Run())
}

// goldenRecordSum is the SHA-256 of the record of a fixed Observation with
// every field set. It pins the checkpoint record and the /v1/observe reply
// byte for byte: a change here means every stored cell takes the slow
// read, or is recomputed. Each map holds one entry, because gob writes a
// map in Go's random iteration order.
const goldenRecordSum = "6905e42cad6f515bec3b2992fda0216876dfe7b18153d5c37a1da66daf8a711c"

func TestObservationRecordGolden(t *testing.T) {
	raw, err := EncodeObservation(&Observation{
		Field: "P", Step: 7, Bound: 1e-4, Compressor: "sz3",
		Features:     map[string]float64{"stat:mean": -0.5},
		MetricMS:     map[string]float64{"stat": 0.125},
		CR:           4.75,
		CompressMS:   1.5,
		DecompressMS: 0.75,
		ByteSize:     32 * 32 * 64 * 4,
		Replicates:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenRecordSum {
		t.Errorf("record SHA-256 %s, want %s (%d bytes: %x)", got, goldenRecordSum, len(raw), raw)
	}
}

// sameObservation reports whether a and b hold the same bits: floats are
// compared as bits, and a nil map differs from an empty one.
func sameObservation(a, b *Observation) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameMap := func(x, y map[string]float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !same(v, w) {
				return false
			}
		}
		return true
	}
	return a.Field == b.Field && a.Step == b.Step && same(a.Bound, b.Bound) &&
		a.Compressor == b.Compressor && sameMap(a.Features, b.Features) &&
		sameMap(a.MetricMS, b.MetricMS) && same(a.CR, b.CR) &&
		same(a.CompressMS, b.CompressMS) && same(a.DecompressMS, b.DecompressMS) &&
		a.ByteSize == b.ByteSize && a.Replicates == b.Replicates
}

// FuzzReadObservation holds the hand path to encoding/gob: for any bytes,
// read as they are and behind this build's type definitions, the hand
// path declines them or returns what a fresh gob.Decoder returns. Past
// the seeds: go test -run '^$' -fuzz FuzzReadObservation ./internal/core
func FuzzReadObservation(f *testing.F) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	defs, _ := recordHead()
	for _, ob := range []*Observation{
		{
			Field: "P", Step: 3, Bound: 1e-4, Compressor: "sz3",
			Features: map[string]float64{"stat:mean": 0.5, "stat:max": -7, "spatial:edge": 1e-300},
			MetricMS: map[string]float64{"stat": 0.25, "spatial": 1.5},
			CR:       3.75, CompressMS: 1.25, DecompressMS: 0.5, ByteSize: 1 << 18, Replicates: 2,
		},
		{
			Field: "CLOUD", Bound: nan, Compressor: "zfp",
			Features: map[string]float64{"nan": nan, "+inf": math.Inf(1), "-inf": math.Inf(-1), "-zero": negZero},
			MetricMS: map[string]float64{},
			CR:       math.Inf(1), CompressMS: negZero, DecompressMS: math.Inf(-1),
		},
		{Field: "U", Step: -9, ByteSize: -1, Replicates: math.MinInt / 2},
		{Field: "W", Compressor: "sz3", CR: 2}, // nil maps
		{},
	} {
		raw, err := EncodeObservation(ob)
		if err != nil {
			f.Fatal(err)
		}
		for i := range raw {
			f.Add(raw[:i+1])
			if i >= len(defs) { // the value message alone, for the second read
				f.Add(raw[len(defs) : i+1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, append(append([]byte(nil), defs...), data...)} {
			var r ObservationReader
			var got Observation
			if !r.read(raw, &got) {
				continue
			}
			var want Observation
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
				t.Fatalf("hand path read %x, which gob refuses: %v", raw, err)
			}
			if !sameObservation(&got, &want) {
				t.Fatalf("%x: hand path %#v, gob %#v", raw, got, want)
			}
		}
	})
}

// TestObservationReaderCoversEveryField sets every field of Observation
// and requires the hand path to read the record, and to read what gob
// does: a field added to Observation fails here until the reader knows it.
func TestObservationReaderCoversEveryField(t *testing.T) {
	var ob Observation
	v := reflect.ValueOf(&ob).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", i))
		case reflect.Int:
			f.SetInt(int64(-i - 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			m.SetMapIndex(reflect.ValueOf(fmt.Sprintf("k%d", i)), reflect.ValueOf(float64(i)))
			f.Set(m)
		default:
			t.Fatalf("field %s is a %s: teach this test and ObservationReader.read to fill and read it", v.Type().Field(i).Name, f.Kind())
		}
	}
	if v.NumField() != obsFields {
		t.Errorf("Observation has %d fields, the reader reads %d", v.NumField(), obsFields)
	}
	raw, err := EncodeObservation(&ob)
	if err != nil {
		t.Fatal(err)
	}
	var r ObservationReader
	var got Observation
	if !r.read(raw, &got) {
		t.Fatalf("the hand path declines a record with every field set: %x", raw)
	}
	if !reflect.DeepEqual(got, ob) {
		t.Errorf("hand path read %#v, want %#v", got, ob)
	}
}

// Read must fall back to gob for what the hand path declines, and leave
// nothing of a declined read or an earlier record in ob.
func TestReadFallsBackToGob(t *testing.T) {
	type oldObservation struct {
		Field string
		CR    float64
	}
	var foreign bytes.Buffer
	if err := gob.NewEncoder(&foreign).Encode(oldObservation{"U", 9}); err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeObservation(&Observation{Field: "P", Step: 2, Features: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	var r ObservationReader
	for _, c := range []struct {
		name string
		raw  []byte
		want *Observation // nil: an error
	}{
		{"this build's", raw, &Observation{Field: "P", Step: 2, Features: map[string]float64{"a": 1}}},
		{"another build's", foreign.Bytes(), &Observation{Field: "U", CR: 9}},
		{"trailing byte", append(append([]byte(nil), raw...), 0), &Observation{Field: "P", Step: 2, Features: map[string]float64{"a": 1}}},
		{"torn", raw[:len(raw)-3], nil},
	} {
		ob := Observation{Compressor: "left over", MetricMS: map[string]float64{}}
		err := r.Read(c.raw, &ob)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s: read %#v, want an error", c.name, ob)
		case c.want != nil && (err != nil || !reflect.DeepEqual(ob, *c.want)):
			t.Errorf("%s: read %#v (%v), want %#v", c.name, ob, err, *c.want)
		}
	}
}
