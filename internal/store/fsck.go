package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/vfs"
)

// Report describes what Fsck found (and, with repair, fixed) in a store
// directory.
type Report struct {
	// SnapshotRecords is the number of valid records in the snapshot
	// (0 when absent).
	SnapshotRecords int
	// WALRecords is the number of valid records in the write-ahead log.
	WALRecords int
	// TornBytes is the length of the invalid WAL tail (0 when clean).
	TornBytes int
	// TornTruncated reports that the torn tail was truncated away.
	TornTruncated bool
	// StaleTemps lists leftover *.tmp snapshot attempts found.
	StaleTemps []string
	// TempsRemoved reports that the stale temps were deleted.
	TempsRemoved bool
	// Live is the number of live keys after replaying snapshot + WAL.
	Live int
}

// Clean reports whether the store needed no repair.
func (r Report) Clean() bool {
	return r.TornBytes == 0 && len(r.StaleTemps) == 0
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot: %d records\nwal: %d records, %d live keys\n",
		r.SnapshotRecords, r.WALRecords, r.Live)
	if r.TornBytes > 0 {
		verb := "found"
		if r.TornTruncated {
			verb = "truncated"
		}
		fmt.Fprintf(&b, "torn tail: %s %d bytes\n", verb, r.TornBytes)
	}
	for _, tmp := range r.StaleTemps {
		verb := "found"
		if r.TempsRemoved {
			verb = "removed"
		}
		fmt.Fprintf(&b, "stale temp: %s %s\n", verb, tmp)
	}
	if r.Clean() {
		b.WriteString("clean\n")
	}
	return b.String()
}

// Fsck checks (and with repair, fixes) the store at dir on the real
// filesystem. See FsckFS.
func Fsck(dir string, repair bool) (Report, error) {
	return FsckFS(dir, vfs.OS, repair)
}

// FsckFS validates the on-disk state of a store without opening it:
// record CRCs in the snapshot and WAL, a torn WAL tail, and stale temp
// snapshots. With repair it truncates the torn tail and removes the
// temps — exactly what Open would do — so a store that "reopens clean
// or repaired" is mechanically checkable. It refuses to repair a
// corrupt snapshot (corruption anywhere but the WAL tail is data loss,
// not a crash signature) and returns an error instead.
func FsckFS(dir string, fsys vfs.FS, repair bool) (Report, error) {
	var rep Report
	s := newStore(dir, fsys)

	if names, err := fsys.ReadDir(dir); err == nil {
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") {
				rep.StaleTemps = append(rep.StaleTemps, name)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return rep, fmt.Errorf("storecheck: %w", err)
	}

	if snap, err := fsys.ReadFile(s.snapshotPath()); err == nil {
		n, good, err := s.replay(snap)
		rep.SnapshotRecords = n
		if err != nil || good < len(snap) {
			return rep, fmt.Errorf("storecheck: corrupt snapshot (%d/%d bytes valid): refusing to repair", good, len(snap))
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return rep, fmt.Errorf("storecheck: %w", err)
	}

	wal, err := fsys.ReadFile(s.walPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return rep, fmt.Errorf("storecheck: %w", err)
	}
	n, good, _ := s.replay(wal)
	rep.WALRecords = n
	rep.TornBytes = len(wal) - good
	rep.Live = len(s.data)

	if !repair {
		return rep, nil
	}
	if rep.TornBytes > 0 {
		if err := fsys.Truncate(s.walPath(), int64(good)); err != nil {
			return rep, fmt.Errorf("storecheck: truncating torn tail: %w", err)
		}
		rep.TornTruncated = true
	}
	for _, tmp := range rep.StaleTemps {
		if err := fsys.Remove(filepath.Join(dir, tmp)); err != nil {
			return rep, fmt.Errorf("storecheck: removing %s: %w", tmp, err)
		}
	}
	rep.TempsRemoved = len(rep.StaleTemps) > 0
	return rep, nil
}
