package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestParentWrittenStoreOpens opens testdata/parent, a snapshot.db and a
// wal.log written by the store before WAL records carried their stream
// and seq (puts and deletes on both sides of a Compact). Checkpoint
// stores and standalone registries on disk look like it: every key and
// value must come back, and Fsck must call it clean.
func TestParentWrittenStoreOpens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.db", "wal.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Fsck(dir, false)
	if err != nil || !rep.Clean() {
		t.Fatalf("Fsck = %v, %v; want clean", rep, err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]string{
		"cell/P/0/1e-4/sz3":            `{"cr":12.75}`,
		"model/krasowska2021/sz3/00ff": "\x00\x01\x02\xfe\xff",
		"job/job-1":                    `{"status":"done"}`,
		"failed/TC/3/1e-2/zfp":         "mlkit: bad input",
		"empty":                        "",
	}
	got := map[string]string{}
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		v, _, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		got[k] = string(v)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parent-written store reads\n%q\nwant\n%q", got, want)
	}
}
