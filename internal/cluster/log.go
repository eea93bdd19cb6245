package cluster

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/store"
	"repro/internal/vfs"
)

// Log is a durable, append-only replication log of store WAL frames.
// Each node authors exactly one log (fed by its store's mirror hook)
// and keeps a local copy of every peer's log (fed by the replication
// fetcher), so after an owner dies any survivor can serve the dead
// node's stream for catch-up.
//
// On-disk entry layout (little endian):
//
//	u64 seq | u32 frameLen | frame
//
// where frame is a store CRC-framed record — the same bytes the WAL
// holds — validated with store.DecodeFrame before it is accepted, so a
// frame corrupted in flight (or on disk) is rejected exactly like Fsck
// rejects a corrupt WAL record. Sequence numbers are contiguous and
// 1-based. A torn or corrupt tail is truncated on open: the log has
// the same crash signature as the WAL it mirrors.
type Log struct {
	mu      sync.Mutex
	path    string
	f       vfs.File
	entries [][]byte // frame bytes, entries[i] holds seq i+1
}

// logHeader is the fixed per-entry prefix: u64 seq + u32 len.
const logHeader = 12

// OpenLog opens (creating if needed) the replication log for the named
// stream under dir, replaying and validating existing entries and
// truncating any torn tail.
func OpenLog(dir string, fsys vfs.FS, stream string) (*Log, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: log dir: %w", err)
	}
	path := filepath.Join(dir, stream+".rlog")
	l := &Log{path: path}

	buf, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("cluster: log %s: %w", path, err)
	}
	good := 0
	for off := 0; off+logHeader <= len(buf); {
		seq := binary.LittleEndian.Uint64(buf[off:])
		n := int(binary.LittleEndian.Uint32(buf[off+8:]))
		if seq != uint64(len(l.entries)+1) || off+logHeader+n > len(buf) {
			break
		}
		frame := buf[off+logHeader : off+logHeader+n]
		if _, sz, err := store.DecodeFrame(frame); err != nil || sz != n {
			break
		}
		l.entries = append(l.entries, append([]byte(nil), frame...))
		off += logHeader + n
		good = off
	}
	if good < len(buf) {
		// same policy as the WAL: corruption past the last valid entry is
		// a torn append; cut it so the log reopens clean
		if err := fsys.Truncate(path, int64(good)); err != nil {
			return nil, fmt.Errorf("cluster: log %s: truncating torn tail: %w", path, err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: log %s: %w", path, err)
	}
	l.f = f
	return l, nil
}

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// LastSeq returns the highest appended sequence number (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.entries))
}

// Append appends a store frame as the next sequence number (author
// side: called from the store's mirror hook) and returns its seq.
func (l *Log) Append(f store.Frame) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(uint64(len(l.entries)+1), store.EncodeFrame(f))
}

// AppendRaw appends a shipped frame under an explicit sequence number
// (follower side). Re-delivery of an already-held seq is a no-op —
// resuming a stream after a disconnect re-sends from the last ack — a
// gap is an error, and a frame that fails CRC validation is rejected
// without touching the log.
func (l *Log) AppendRaw(seq uint64, frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := uint64(len(l.entries))
	if seq <= last {
		return nil
	}
	if seq != last+1 {
		return fmt.Errorf("cluster: log %s: gap: got seq %d, want %d", l.path, seq, last+1)
	}
	if _, sz, err := store.DecodeFrame(frame); err != nil || sz != len(frame) {
		return fmt.Errorf("cluster: log %s: seq %d: corrupt frame rejected (%v)", l.path, seq, err)
	}
	_, err := l.appendLocked(seq, frame)
	return err
}

func (l *Log) appendLocked(seq uint64, frame []byte) (uint64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("cluster: log %s: closed", l.path)
	}
	rec := make([]byte, logHeader+len(frame))
	binary.LittleEndian.PutUint64(rec, seq)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
	copy(rec[logHeader:], frame)
	if _, err := l.f.Write(rec); err != nil {
		return 0, fmt.Errorf("cluster: log %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("cluster: log %s: %w", l.path, err)
	}
	l.entries = append(l.entries, append([]byte(nil), frame...))
	return seq, nil
}

// Entry is one shipped log record.
type Entry struct {
	Seq   uint64 `json:"seq"`
	Frame []byte `json:"frame"` // store CRC-framed record (base64 in JSON)
}

// EntriesFrom returns up to max entries starting at seq (1-based).
func (l *Log) EntriesFrom(seq uint64, max int) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < 1 {
		seq = 1
	}
	var out []Entry
	for ; seq <= uint64(len(l.entries)) && len(out) < max; seq++ {
		out = append(out, Entry{Seq: seq, Frame: l.entries[seq-1]})
	}
	return out
}
