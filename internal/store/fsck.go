package store

import (
	"fmt"
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
// temps — exactly what Open does, through the same routine — so a store
// that "reopens clean or repaired" is mechanically checkable. It refuses
// to repair a corrupt snapshot and returns an error instead.
func FsckFS(dir string, fsys vfs.FS, repair bool) (Report, error) {
	rep, err := newStore(dir, fsys).recover(repair)
	if err != nil {
		err = fmt.Errorf("storecheck: %w", err)
	}
	return rep, err
}
