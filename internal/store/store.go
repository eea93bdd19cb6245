// Package store is the embedded checkpoint database of predict-bench —
// the substitution for the paper's SQLite layer (§4.3). It provides the
// two properties the paper chose SQLite for:
//
//   - atomicity: records are CRC-framed in an append-only write-ahead
//     log; a crash mid-write leaves a torn tail that recovery truncates,
//     so no partial result is ever observed;
//   - queryable partial restore: records are indexed by key (stable
//     option-structure hashes from package opthash) and can be listed by
//     prefix, so a restarted run reloads only the metric results it
//     already computed.
//
// Compact rewrites the live set into a snapshot with an atomic rename,
// bounding log growth across many checkpoint/restart cycles.
//
// Every WAL record the store writes is an entry of a stream: the Local
// stream, which Put and Delete append to, or a stream another store
// authored, whose frames Apply writes at the seq they carry. A cluster
// node ships and relays streams straight from its WAL (Entries), so the
// WAL is the one durable log a node writes.
//
// Every disk mutation flows through a vfs.FS seam (OpenFS), so the
// fsync/rename/truncate ordering is exercised under injected failures —
// short writes, ENOSPC, failed fsyncs, crash points — by the errfs of
// internal/faultinject. A failed append self-heals: the WAL is truncated
// back to the last durable record, so a surfaced write error never
// silently poisons later appends.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/vfs"
)

const (
	opPut    = byte(1)
	opDelete = byte(2)
	// opEntry records entry seq of a stream: its key is the stream, its
	// value the u64 seq followed by the entry's put or delete frame. In a
	// snapshot the frame is absent: the record keeps the stream's last
	// seq across the Compact that wrote it.
	opEntry = byte(3)
)

// Local is the stream the store's own Put and Delete append to.
const Local = ""

// Exported frame operation codes — the replication layer ships the
// frames of the store's WAL entries verbatim between cluster nodes.
const (
	FramePut    = opPut
	FrameDelete = opDelete
)

// Frame is one put or delete in exported form: the unit of replication.
// EncodeFrame/DecodeFrame use the exact on-disk framing (u32 CRC over
// the body), so a shipped frame is validated by the same checksum logic
// Fsck applies to the local log.
type Frame struct {
	Op    byte
	Key   string
	Value []byte
}

// EncodeFrame frames one operation exactly as the WAL does.
func EncodeFrame(f Frame) []byte { return encodeRecord(f.Op, f.Key, f.Value) }

// DecodeFrame decodes and CRC-validates one frame from the head of buf,
// returning the frame, whose Value shares buf's bytes, and its encoded
// length. io.ErrUnexpectedEOF means
// a torn frame; a checksum error means corruption.
func DecodeFrame(buf []byte) (Frame, int, error) {
	rec, n, err := decodeRecord(buf)
	if err != nil {
		return Frame{}, 0, err
	}
	return Frame{Op: rec.op, Key: rec.key, Value: rec.value}, n, nil
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Store is a durable string-keyed record store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	fs      vfs.FS
	wal     vfs.File
	walLen  int64 // bytes of whole, durable records in the WAL
	dirty   bool  // this handle changed the WAL since its last fsync
	tmpSeq  uint64
	data    map[string][]byte
	streams map[string]*stream
	closed  bool
	// Sync controls whether every Put fsyncs the log (durable against
	// power loss) or leaves flushing to the OS (durable against process
	// crashes only, much faster). Defaults to false, as predict-bench
	// re-runs cheaply relative to fsync-per-record at scale; predictd
	// turns it on so acknowledged fit jobs survive power loss.
	Sync bool
	// Inject scripts crashes at the store's durability boundaries
	// (tests only). A crash-kind rule at OpPutBefore aborts before the
	// WAL append (the record is lost, as a real crash there would lose
	// it); OpPutAfter aborts after the append (the record is durable
	// but unacknowledged); OpCompactBefore aborts with the snapshot
	// written but not renamed; OpCompactAfter aborts after the rename
	// but before the WAL truncate. All leave the store ErrClosed, as
	// the "process" died. Finer-grained filesystem faults are injected
	// below the seam by opening with OpenFS over a faultinject.ErrFS.
	Inject *faultinject.Plan
}

// stream is what the store holds of one stream: its last seq, and the
// WAL span of each entry written since the last Compact.
type stream struct {
	seq   uint64
	spans []span // entries seq-len(spans)+1 ... seq
}

type span struct {
	off int64
	n   int
}

// ErrCrashed marks operations aborted by an injected crash.
var ErrCrashed = errors.New("store: injected crash")

// fire evaluates the injection plan at a crash point; on a hit it closes
// the store (simulating process death) and returns the error. Call with
// s.mu held.
func (s *Store) fire(op faultinject.Op, key string) error {
	if s.Inject == nil {
		return nil
	}
	d := s.Inject.Fire(op, -1, key)
	if d.Err == nil {
		return nil
	}
	s.closed = true
	s.wal.Close()
	return fmt.Errorf("%w: %w", ErrCrashed, d.Err)
}

// Open loads (or creates) a store rooted at dir on the real filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, vfs.OS)
}

// OpenFS loads (or creates) a store rooted at dir, with all disk access
// through fsys, recovering it as Fsck with repair would: a torn record
// at the log tail — the signature of a crash mid-append — is discarded
// and the log truncated to the last good record, and stale temp
// snapshots are removed.
func OpenFS(dir string, fsys vfs.FS) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := newStore(dir, fsys)
	if _, err := s.recover(true); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	wal, err := fsys.OpenFile(s.walPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	return s, nil
}

// recover loads the store's snapshot, then its WAL on top, and reports
// what it found. Stale temp snapshots are the signature of a crash (or
// failed write) before a compact rename, a torn WAL tail that of a crash
// mid-append; with repair the tail is truncated and the temps, whose
// names are unique per attempt, are removed by suffix. A corrupt
// snapshot is refused with or without repair: corruption anywhere but
// the WAL tail is data loss, not a crash signature.
func (s *Store) recover(repair bool) (Report, error) {
	var rep Report
	names, err := s.fs.ReadDir(s.dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return rep, err
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			rep.StaleTemps = append(rep.StaleTemps, name)
		}
	}
	snap, err := s.fs.ReadFile(s.snapshotPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return rep, err
	}
	n, good, err := s.replay(snap)
	rep.SnapshotRecords = n
	if err != nil {
		return rep, fmt.Errorf("corrupt snapshot (%d/%d bytes valid): refusing to repair", good, len(snap))
	}
	wal, err := s.fs.ReadFile(s.walPath())
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return rep, err
	}
	n, good, _ = s.replay(wal)
	rep.WALRecords, rep.TornBytes, rep.Live = n, len(wal)-good, len(s.data)
	s.walLen = int64(good)
	if !repair {
		return rep, nil
	}
	if rep.TornBytes > 0 {
		if err := s.fs.Truncate(s.walPath(), s.walLen); err != nil {
			return rep, fmt.Errorf("truncating torn tail: %w", err)
		}
		s.dirty = true
		rep.TornTruncated = true
	}
	for _, tmp := range rep.StaleTemps {
		if err := s.fs.Remove(filepath.Join(s.dir, tmp)); err != nil {
			return rep, fmt.Errorf("removing %s: %w", tmp, err)
		}
	}
	rep.TempsRemoved = len(rep.StaleTemps) > 0
	return rep, nil
}

func newStore(dir string, fsys vfs.FS) *Store {
	return &Store{dir: dir, fs: fsys, data: make(map[string][]byte), streams: make(map[string]*stream)}
}

func (s *Store) walPath() string      { return filepath.Join(s.dir, "wal.log") }
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.db") }

// replay loads the records of buf into memory, in order, and returns
// how many puts and deletes its whole prefix holds, the byte length of
// that prefix, and the error that ended it (nil when all of buf is
// whole). Only the WAL holds entry frames, so a span is always a WAL
// offset; a snapshot's entries are bare positions.
func (s *Store) replay(buf []byte) (n, good int, err error) {
	for good < len(buf) {
		rec, sz, err := decodeRecord(buf[good:])
		if err != nil {
			return n, good, err
		}
		f := Frame{Op: rec.op, Key: rec.key, Value: rec.value}
		if rec.op == opEntry {
			seq, ef, err := decodeEntry(rec.value)
			if err != nil {
				return n, good, err
			}
			if ef.Op == 0 {
				s.streams[rec.key] = &stream{seq: seq}
				good += sz
				continue
			}
			f = ef
			s.advance(rec.key, seq, span{int64(good), sz})
		}
		s.hold(f)
		n++
		good += sz
	}
	return n, good, nil
}

// hold applies one put or delete to the in-memory map, keeping a copy
// of a put's value.
func (s *Store) hold(f Frame) {
	switch f.Op {
	case opPut:
		s.data[f.Key] = append([]byte(nil), f.Value...)
	case opDelete:
		delete(s.data, f.Key)
	}
}

// advance records entry seq of stream at sp in the WAL. The WAL's order
// is authoritative: after a crash between a Compact's rename and its WAL
// truncate the WAL replays entries the snapshot already counts, and the
// spans start over with them.
func (s *Store) advance(name string, seq uint64, sp span) {
	st := s.streams[name]
	if st == nil {
		st = &stream{}
		s.streams[name] = st
	}
	if seq != st.seq+1 {
		st.spans = st.spans[:0]
	}
	st.seq = seq
	st.spans = append(st.spans, sp)
}

type record struct {
	op    byte
	key   string
	value []byte
}

// encodeRecord frames op, key and the concatenation of value as one
// record: u32 crc (of the rest), u8 op, u32 keyLen, u32 valLen, key, val.
func encodeRecord(op byte, key string, value ...[]byte) []byte {
	n := 0
	for _, v := range value {
		n += len(v)
	}
	out := make([]byte, 4, 13+len(key)+n)
	out = append(out, op)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(key)))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = append(out, key...)
	for _, v := range value {
		out = append(out, v...)
	}
	binary.LittleEndian.PutUint32(out, crc32.ChecksumIEEE(out[4:]))
	return out
}

// encodeEntry frames frame as entry seq of stream; a nil frame is the
// snapshot's record of the stream's position.
func encodeEntry(stream string, seq uint64, frame []byte) []byte {
	var pos [8]byte
	binary.LittleEndian.PutUint64(pos[:], seq)
	return encodeRecord(opEntry, stream, pos[:], frame)
}

// decodeEntry splits an entry record's value into its seq and frame (a
// zero Frame for a bare position).
func decodeEntry(value []byte) (uint64, Frame, error) {
	if len(value) < 8 {
		return 0, Frame{}, errors.New("store: short entry record")
	}
	seq := binary.LittleEndian.Uint64(value)
	if len(value) == 8 {
		return seq, Frame{}, nil
	}
	f, err := checkFrame(value[8:])
	return seq, f, err
}

// checkFrame decodes a frame that must be exactly one whole put or
// delete.
func checkFrame(frame []byte) (Frame, error) {
	f, n, err := DecodeFrame(frame)
	if err == nil && n != len(frame) {
		err = fmt.Errorf("%d trailing bytes", len(frame)-n)
	}
	if err == nil && f.Op != opPut && f.Op != opDelete {
		err = fmt.Errorf("unknown frame op %d", f.Op)
	}
	return f, err
}

// decodeRecord decodes and CRC-checks the record at the head of buf;
// its value shares buf's bytes.
func decodeRecord(buf []byte) (record, int, error) {
	if len(buf) < 13 {
		return record{}, 0, io.ErrUnexpectedEOF
	}
	crc := binary.LittleEndian.Uint32(buf)
	op := buf[4]
	keyLen := int(binary.LittleEndian.Uint32(buf[5:]))
	valLen := int(binary.LittleEndian.Uint32(buf[9:]))
	total := 13 + keyLen + valLen
	if keyLen < 0 || valLen < 0 || len(buf) < total {
		return record{}, 0, io.ErrUnexpectedEOF
	}
	body := buf[4:total]
	if crc32.ChecksumIEEE(body) != crc {
		return record{}, 0, errors.New("store: bad record checksum")
	}
	return record{op: op, key: string(buf[13 : 13+keyLen]), value: buf[13+keyLen : total]}, total, nil
}

// appendRecord writes one framed record to the WAL (fsyncing under
// Sync) and advances walLen. On any write or sync failure it heals the
// tail — truncating back to the last durable record so torn bytes can
// never precede later appends — and surfaces the error; if even the
// heal fails (the disk is gone, or an injected crash killed the fs),
// the store poisons itself closed rather than acknowledge writes it
// cannot make durable. Call with s.mu held.
func (s *Store) appendRecord(rec []byte) error {
	if _, err := s.wal.Write(rec); err != nil {
		s.healTail()
		return fmt.Errorf("store: %w", err)
	}
	if s.Sync {
		if err := s.wal.Sync(); err != nil {
			s.healTail()
			return fmt.Errorf("store: %w", err)
		}
	} else {
		s.dirty = true
	}
	s.walLen += int64(len(rec))
	return nil
}

// healTail truncates the WAL back to the last whole durable record
// after a failed append. Call with s.mu held.
func (s *Store) healTail() {
	s.dirty = true
	if err := s.wal.Truncate(s.walLen); err != nil {
		s.closed = true
		s.wal.Close()
	}
}

// Put durably stores value under key (last write wins) as the next
// entry of the Local stream.
func (s *Store) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	f := Frame{Op: opPut, Key: key, Value: value}
	return s.writeLocked(Local, s.seqLocked(Local)+1, f, EncodeFrame(f))
}

// Apply writes frame, a put or delete as EncodeFrame frames it, as entry
// seq of stream. An entry the store already holds is a no-op and a seq
// past the next one is an error; a frame that fails its checksum is
// rejected before anything is written. The entry is written even when
// it changes nothing here, such as a delete of a key another stream
// already removed, so that the stream this store relays has no hole.
func (s *Store) Apply(stream string, seq uint64, frame []byte) error {
	f, err := checkFrame(frame)
	if err != nil {
		return fmt.Errorf("store: stream %q seq %d: corrupt frame rejected (%v)", stream, seq, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	last := s.seqLocked(stream)
	if seq <= last {
		return nil
	}
	if seq != last+1 {
		return fmt.Errorf("store: stream %q: gap: got seq %d, want %d", stream, seq, last+1)
	}
	return s.writeLocked(stream, seq, f, frame)
}

// writeLocked appends f, framed as frame, to the WAL as entry seq of
// stream and applies it in memory. A put passes the put-before and
// put-after crash points on either side of the append. Call with s.mu
// held.
func (s *Store) writeLocked(stream string, seq uint64, f Frame, frame []byte) error {
	if f.Op == opPut {
		if err := s.fire(faultinject.OpPutBefore, f.Key); err != nil {
			return err
		}
	}
	off := s.walLen
	rec := encodeEntry(stream, seq, frame)
	if err := s.appendRecord(rec); err != nil {
		return err
	}
	if f.Op == opPut {
		if err := s.fire(faultinject.OpPutAfter, f.Key); err != nil {
			return err
		}
	}
	s.hold(f)
	s.advance(stream, seq, span{off, len(rec)})
	return nil
}

// LastSeq returns the seq of the Local stream's last entry (0 for none).
func (s *Store) LastSeq() uint64 { return s.Seq(Local) }

// Seq returns the seq of stream's last entry the store holds (0 for
// none). It survives Close, Open and Compact.
func (s *Store) Seq(stream string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seqLocked(stream)
}

func (s *Store) seqLocked(stream string) uint64 {
	if st := s.streams[stream]; st != nil {
		return st.seq
	}
	return 0
}

// Entries returns the frames of up to max entries of stream, the first
// being entry from, read back from the WAL. Entries a Compact folded
// into the snapshot are gone: asking for one is an error.
func (s *Store) Entries(stream string, from uint64, max int) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	st := s.streams[stream]
	if st == nil || from > st.seq {
		return nil, nil
	}
	first := st.seq - uint64(len(st.spans)) + 1
	if from < first {
		return nil, fmt.Errorf("store: stream %q: entries before %d were compacted", stream, first)
	}
	spans := st.spans[from-first:]
	if len(spans) > max {
		spans = spans[:max]
	}
	out := make([][]byte, 0, len(spans))
	for _, sp := range spans {
		buf := make([]byte, sp.n)
		if _, err := s.wal.ReadAt(buf, sp.off); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		rec, _, err := decodeRecord(buf)
		if err != nil {
			return nil, fmt.Errorf("store: stream %q: %w", stream, err)
		}
		out = append(out, rec.value[8:])
	}
	return out, nil
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.data[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Delete removes key as the next entry of the Local stream; deleting a
// missing key is not an error and writes nothing.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.data[key]; !ok {
		return nil
	}
	f := Frame{Op: opDelete, Key: key}
	return s.writeLocked(Local, s.seqLocked(Local)+1, f, EncodeFrame(f))
}

// Keys returns the stored keys with the given prefix, sorted — the
// partial-restore query predict-bench uses to find finished tasks.
func (s *Store) Keys(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Compact writes the live set and each stream's last seq as a snapshot
// (atomic rename) and truncates the log. The streams' seqs carry on from
// where they were; their entries up to now can no longer be read.
func (s *Store) Compact() (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var snap []byte
	for _, k := range keys {
		snap = append(snap, encodeRecord(opPut, k, s.data[k])...)
	}
	names := make([]string, 0, len(s.streams))
	for name := range s.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap = append(snap, encodeEntry(name, s.streams[name].seq, nil)...)
	}
	// write + fsync the temp snapshot before the rename, and fsync the
	// directory after: without both, a power loss just after Compact can
	// surface an empty or torn snapshot even though rename is atomic.
	// The temp name is unique per attempt so a failed attempt can never
	// collide with a retry; on any non-crash failure the temp is removed
	// here, and Open sweeps survivors of crashes.
	tmp := fmt.Sprintf("%s.%d.tmp", s.snapshotPath(), s.tmpSeq)
	s.tmpSeq++
	renamed := false
	defer func() {
		// leave the temp in place on injected crashes — the "process"
		// died, and recovery (Open / Fsck) owns the cleanup
		if !renamed && !errors.Is(err, ErrCrashed) {
			s.fs.Remove(tmp)
		}
	}()
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(snap); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fire(faultinject.OpCompactBefore, s.snapshotPath()); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, s.snapshotPath()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	renamed = true
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fire(faultinject.OpCompactAfter, s.snapshotPath()); err != nil {
		return err
	}
	s.dirty = true
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walLen = 0
	for _, st := range s.streams {
		st.spans = nil
	}
	return nil
}

// Close flushes and closes the log; the store is unusable afterwards. It
// fsyncs only a log this handle changed since its last fsync: a store
// opened, read and closed (a resume's lookups) closes without one.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.dirty {
		return s.wal.Close()
	}
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}
