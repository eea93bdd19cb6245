package faultinject

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/vfs"
)

// ErrFS is a vfs.FS that injects filesystem faults from a Plan into
// every operation touching the guarded root directory: short writes,
// ENOSPC, failed fsyncs, failed renames, and crash points. A crash
// freezes the root's current on-disk state as a copy (FrozenDir) and
// marks the filesystem dead — every later operation fails with
// ErrCrash, exactly as if the process had died at that instant. The
// kill-restart harness then reopens the frozen copy as "the machine
// after reboot".
//
// Fault points fire with the operation's path as the key, so rules can
// target one file: `fs-write enospc key=wal.log`, `fs-sync crash`.
// A crash at fs-write first lands a torn prefix of the buffer (half,
// rounded down) before freezing — the on-disk signature of a process
// killed mid-append, which is what the store's torn-tail recovery must
// absorb. A short/enospc write also lands the torn prefix but leaves
// the "process" alive, so the caller sees the error and must repair.
type ErrFS struct {
	base vfs.FS
	root string
	plan *Plan

	mu     sync.Mutex
	dead   bool
	frozen string
}

// NewErrFS builds an errfs over the real filesystem guarding root.
func NewErrFS(root string, plan *Plan) *ErrFS {
	return &ErrFS{base: vfs.OS, root: root, plan: plan}
}

// Crashed reports whether an injected crash has fired (or Freeze was
// called); once true, every operation fails with ErrCrash.
func (f *ErrFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// FrozenDir returns the directory holding the crash-point copy of the
// root, or "" before any crash.
func (f *ErrFS) FrozenDir() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frozen
}

// Freeze copies the root's current state into the frozen directory and
// marks the filesystem dead. Crash-kind injections call it implicitly;
// the harness calls it directly when a crash fired above the seam (a
// store-level crash point) so the restart still reopens a snapshot
// taken at the instant of death. Idempotent: a second call returns the
// first frozen dir.
func (f *ErrFS) Freeze() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frozen != "" {
		f.dead = true
		return f.frozen, nil
	}
	dst := f.root + ".crash"
	if err := f.base.MkdirAll(dst, 0o755); err != nil {
		return "", fmt.Errorf("errfs: freeze: %w", err)
	}
	names, err := f.base.ReadDir(f.root)
	if err != nil {
		return "", fmt.Errorf("errfs: freeze: %w", err)
	}
	for _, name := range names {
		raw, err := f.base.ReadFile(filepath.Join(f.root, name))
		if err != nil {
			continue // subdirectory or vanished entry: not store state
		}
		out, err := f.base.OpenFile(filepath.Join(dst, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return "", fmt.Errorf("errfs: freeze: %w", err)
		}
		if _, err := out.Write(raw); err != nil {
			out.Close()
			return "", fmt.Errorf("errfs: freeze: %w", err)
		}
		if err := out.Close(); err != nil {
			return "", fmt.Errorf("errfs: freeze: %w", err)
		}
	}
	f.dead = true
	f.frozen = dst
	return dst, nil
}

// errDead is the failure every operation returns after a crash.
func errDead() error { return fmt.Errorf("errfs: filesystem dead after %w", ErrCrash) }

// fire evaluates the plan at an fs fault point, applying delays. On a
// crash decision it freezes the directory first when freezeOnCrash is
// set — Write passes false so the torn prefix lands before the copy is
// taken. Returns the decision error (nil to proceed).
func (f *ErrFS) fire(op Op, key string, freezeOnCrash bool) error {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return errDead()
	}
	f.mu.Unlock()

	d := f.plan.Fire(op, -1, key)
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.Err == nil {
		return nil
	}
	if freezeOnCrash && errors.Is(d.Err, ErrCrash) {
		f.Freeze()
	}
	return fmt.Errorf("errfs: %w", d.Err)
}

// MkdirAll is not a fault point: directory creation happens once at
// Open, before any durability-relevant state exists.
func (f *ErrFS) MkdirAll(path string, perm os.FileMode) error {
	if f.Crashed() {
		return errDead()
	}
	return f.base.MkdirAll(path, perm)
}

func (f *ErrFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if err := f.fire(OpFSOpen, name, true); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: f, name: name, file: file}, nil
}

func (f *ErrFS) ReadFile(name string) ([]byte, error) {
	if err := f.fire(OpFSOpen, name, true); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *ErrFS) ReadDir(dir string) ([]string, error) {
	if f.Crashed() {
		return nil, errDead()
	}
	return f.base.ReadDir(dir)
}

func (f *ErrFS) Rename(oldpath, newpath string) error {
	if err := f.fire(OpFSRename, oldpath+" -> "+newpath, true); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *ErrFS) Remove(name string) error {
	if err := f.fire(OpFSRemove, name, true); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *ErrFS) Truncate(name string, size int64) error {
	if err := f.fire(OpFSTruncate, name, true); err != nil {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *ErrFS) SyncDir(dir string) error {
	if err := f.fire(OpFSSync, dir, true); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// errFile wraps an open file, firing write/sync/truncate fault points.
type errFile struct {
	fs   *ErrFS
	name string
	file vfs.File
}

func (ef *errFile) Write(p []byte) (int, error) {
	err := ef.fs.fire(OpFSWrite, ef.name, false)
	if err == nil {
		return ef.file.Write(p)
	}
	// torn semantics: short writes, full disks, and crashes all land a
	// prefix of the buffer before failing — the state a recovery scan
	// must be able to absorb
	if errors.Is(err, ErrShortWrite) || errors.Is(err, ErrNoSpace) || errors.Is(err, ErrCrash) {
		n, werr := ef.file.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		if errors.Is(err, ErrCrash) {
			// the copy must contain the torn prefix, so freeze only now
			ef.fs.Freeze()
		}
		return n, err
	}
	return 0, err
}

func (ef *errFile) Sync() error {
	if err := ef.fs.fire(OpFSSync, ef.name, true); err != nil {
		return err
	}
	return ef.file.Sync()
}

func (ef *errFile) Truncate(size int64) error {
	if err := ef.fs.fire(OpFSTruncate, ef.name, true); err != nil {
		return err
	}
	return ef.file.Truncate(size)
}

func (ef *errFile) Seek(offset int64, whence int) (int64, error) {
	if ef.fs.Crashed() {
		return 0, errDead()
	}
	return ef.file.Seek(offset, whence)
}

// ReadAt is not a fault point, but like every operation it fails once
// the filesystem is dead.
func (ef *errFile) ReadAt(p []byte, off int64) (int, error) {
	if ef.fs.Crashed() {
		return 0, errDead()
	}
	return ef.file.ReadAt(p, off)
}

// Close never fails injection: a dying process's descriptors close
// anyway, and refusing Close would leak handles in tests.
func (ef *errFile) Close() error { return ef.file.Close() }
