package opthash

import (
	"testing"
	"testing/quick"

	"repro/internal/pressio"
)

func optsOf(pairs ...any) pressio.Options {
	o := pressio.Options{}
	for i := 0; i+1 < len(pairs); i += 2 {
		o.Set(pairs[i].(string), pairs[i+1])
	}
	return o
}

func TestHashDeterministic(t *testing.T) {
	a := optsOf("pressio:abs", 1e-6, "compressor", "sz3", "bins", 65536)
	b := optsOf("bins", 65536, "compressor", "sz3", "pressio:abs", 1e-6)
	if Hash(a) != Hash(b) {
		t.Error("hash should be independent of insertion order")
	}
	if HashString(a) != HashString(b) {
		t.Error("HashString should match too")
	}
}

func TestHashSensitiveToValues(t *testing.T) {
	a := optsOf("pressio:abs", 1e-6)
	b := optsOf("pressio:abs", 1e-4)
	if Hash(a) == Hash(b) {
		t.Error("different values should hash differently")
	}
}

func TestHashSensitiveToKeys(t *testing.T) {
	a := optsOf("x", int64(1))
	b := optsOf("y", int64(1))
	if Hash(a) == Hash(b) {
		t.Error("different keys should hash differently")
	}
}

func TestHashTypeTagged(t *testing.T) {
	a := optsOf("v", "1")
	b := optsOf("v", int64(49)) // ASCII '1'
	if Hash(a) == Hash(b) {
		t.Error("string and int values should not collide")
	}
	c := optsOf("v", int64(1))
	d := optsOf("v", float64(1))
	if Hash(c) == Hash(d) {
		t.Error("int and float values should not collide")
	}
}

func TestHashSkipsOpaque(t *testing.T) {
	a := optsOf("pressio:abs", 1e-6)
	b := a.Clone()
	b.Set("stream", struct{ X int }{7}) // wrapped in Opaque by Set
	if Hash(a) != Hash(b) {
		t.Error("opaque entries must be excluded from the hash")
	}
}

func TestHashStringsFraming(t *testing.T) {
	// ["ab","c"] must not collide with ["a","bc"].
	a := optsOf("v", []string{"ab", "c"})
	b := optsOf("v", []string{"a", "bc"})
	if Hash(a) == Hash(b) {
		t.Error("string-slice framing is ambiguous")
	}
}

func TestCombineOrderMatters(t *testing.T) {
	a := optsOf("k", int64(1))
	b := optsOf("k", int64(2))
	if Combine(a, b) == Combine(b, a) {
		t.Error("Combine should be order sensitive: the parts have distinct roles")
	}
	if Combine(a, b) != Combine(a, b) {
		t.Error("Combine should be deterministic")
	}
}

func TestCombineSumsIsCombineOfHashes(t *testing.T) {
	a := optsOf("k", int64(1))
	b := optsOf("s", "x", "f", 0.5)
	if got, want := CombineSums(Hash(a), Hash(b)), Combine(a, b); got != want {
		t.Errorf("CombineSums(Hash(a), Hash(b)) = %s, Combine(a, b) = %s", got, want)
	}
	if CombineSums() != Combine() {
		t.Error("CombineSums and Combine disagree on no parts")
	}
}

func TestHashStableAcrossRuns(t *testing.T) {
	// Golden value: guards the cross-execution stability guarantee the
	// paper relies on for checkpoint indexing. If the encoding changes,
	// update this constant deliberately (it invalidates on-disk caches).
	o := optsOf("pressio:abs", 1e-6, "compressor", "sz3")
	const golden = "1af591fe4cd67d21e774157aa8143cf45701cdd8ec1f0f728d9f4fcddd41fe3a"
	if got := HashString(o); got != golden {
		t.Errorf("HashString = %s, want %s (encoding changed?)", got, golden)
	}
}

func TestHashQuickProperties(t *testing.T) {
	f := func(k string, v int64, extra string) bool {
		if k == extra {
			return true
		}
		a := pressio.Options{}
		a.Set(k, v)
		b := a.Clone()
		// adding an entry changes the hash; removing it restores it
		b.Set(extra, "x")
		if Hash(a) == Hash(b) {
			return false
		}
		delete(b, extra)
		return Hash(a) == Hash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
