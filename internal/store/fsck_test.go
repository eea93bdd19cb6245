package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFsckCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Compact()
	s.Put("c", []byte("3"))
	s.Close()

	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean store reported dirty: %+v", rep)
	}
	if rep.SnapshotRecords != 2 || rep.WALRecords != 1 || rep.Live != 3 {
		t.Errorf("counts = %+v", rep)
	}
	if !strings.Contains(rep.String(), "clean") {
		t.Errorf("report = %q", rep.String())
	}
}

func TestFsckRepairsTornTailAndTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("good", []byte("v"))
	s.Close()

	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01, 0x02, 0x03}) // torn frame
	f.Close()
	stale := filepath.Join(dir, "snapshot.db.7.tmp")
	os.WriteFile(stale, []byte("half a snapshot"), 0o644)

	// check-only: report but do not touch
	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornBytes != 3 || rep.TornTruncated || len(rep.StaleTemps) != 1 || rep.TempsRemoved {
		t.Fatalf("check-only report = %+v", rep)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatal("check-only fsck removed the temp")
	}

	// repair: truncate + remove, then the store must open clean
	rep, err = Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTruncated || !rep.TempsRemoved {
		t.Fatalf("repair report = %+v", rep)
	}
	if got := rep.String(); !strings.Contains(got, "truncated") || !strings.Contains(got, "removed") {
		t.Errorf("report = %q", got)
	}

	rep, err = Fsck(dir, false)
	if err != nil || !rep.Clean() {
		t.Fatalf("store still dirty after repair: %+v, %v", rep, err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("good"); !ok {
		t.Error("repair lost the good record")
	}
}

func TestFsckRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Compact()
	s.Close()

	snap := filepath.Join(dir, "snapshot.db")
	raw, _ := os.ReadFile(snap)
	raw[6] ^= 0xFF
	os.WriteFile(snap, raw, 0o644)

	if _, err := Fsck(dir, true); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("fsck on corrupt snapshot = %v, want refusal", err)
	}
	// and it must not have "repaired" anything silently
	got, _ := os.ReadFile(snap)
	if string(got) != string(raw) {
		t.Error("fsck mutated a corrupt snapshot")
	}
}

func TestFsckMissingDir(t *testing.T) {
	rep, err := Fsck(filepath.Join(t.TempDir(), "never-created"), false)
	if err != nil {
		t.Fatalf("fsck of absent store = %v", err)
	}
	if !rep.Clean() || rep.Live != 0 {
		t.Errorf("absent store report = %+v", rep)
	}
}

// TestOpenDoesWhatFsckRepairs: Open recovers a directory exactly as
// Fsck with repair does. Over a clean store, a torn WAL tail, a stale
// temp snapshot and a corrupt snapshot, Open succeeds exactly when the
// repair does, both leave byte-identical directories, and both hold the
// same live keys.
func TestOpenDoesWhatFsckRepairs(t *testing.T) {
	clean := func(t *testing.T, dir string) {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Put("a", []byte("1"))
		s.Put("b", []byte("2"))
		s.Compact()
		s.Put("c", []byte("3"))
		s.Delete("a")
		s.Close()
	}
	cases := map[string]func(t *testing.T, dir string){
		"clean": clean,
		"torn tail": func(t *testing.T, dir string) {
			clean(t, dir)
			f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x01, 0x02, 0x03})
			f.Close()
		},
		"stale temp": func(t *testing.T, dir string) {
			clean(t, dir)
			os.WriteFile(filepath.Join(dir, "snapshot.db.3.tmp"), []byte("half a snapshot"), 0o644)
		},
		"corrupt snapshot": func(t *testing.T, dir string) {
			// with a stale temp too: a refused store is left as found
			clean(t, dir)
			os.WriteFile(filepath.Join(dir, "snapshot.db.3.tmp"), []byte("half a snapshot"), 0o644)
			snap := filepath.Join(dir, "snapshot.db")
			raw, _ := os.ReadFile(snap)
			raw[6] ^= 0xFF
			os.WriteFile(snap, raw, 0o644)
		},
	}
	files := func(t *testing.T, dir string) map[string]string {
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range names {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(raw)
		}
		return out
	}
	keys := func(t *testing.T, dir string) string {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ks, _ := s.Keys("")
		return strings.Join(ks, ",")
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			opened, fscked := t.TempDir(), t.TempDir()
			build(t, opened)
			build(t, fscked)
			s, openErr := Open(opened)
			var openKeys []string
			if openErr == nil {
				openKeys, _ = s.Keys("")
				s.Close()
			}
			rep, fsckErr := Fsck(fscked, true)
			if (openErr == nil) != (fsckErr == nil) {
				t.Fatalf("Open = %v but Fsck(repair) = %v", openErr, fsckErr)
			}
			if a, b := files(t, opened), files(t, fscked); !reflect.DeepEqual(a, b) {
				t.Errorf("Open left %d files, Fsck %d; the directories differ", len(a), len(b))
			}
			if openErr != nil {
				return
			}
			if got := keys(t, fscked); got != strings.Join(openKeys, ",") || rep.Live != len(openKeys) {
				t.Errorf("Open holds keys %v; Fsck reports %d live, reopened %q", openKeys, rep.Live, got)
			}
		})
	}
}
