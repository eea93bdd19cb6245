// Package vfs is the filesystem seam of the durability layer. The
// store and the predictd fit-job journal reach the disk only through
// the FS interface, so their fsync/rename/truncate ordering can be
// exercised under injected failures: in production the seam is the
// thin OS passthrough below, in crash tests it is the errfs of
// internal/faultinject, which scripts short writes, ENOSPC, failed
// fsyncs, and crash points that freeze the directory state.
//
// The interface is deliberately narrow — exactly the operations the
// WAL + snapshot store performs — rather than a general filesystem
// abstraction; a fault model is only trustworthy if every mutation of
// the guarded directory flows through it.
package vfs

import (
	"io"
	"os"
)

// FS is the set of filesystem operations the durable store performs.
// Implementations must be safe for concurrent use.
type FS interface {
	// MkdirAll creates a directory (and parents) like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens a file for writing/appending like os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads a whole file like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the entry names of a directory, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newpath with oldpath like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file like os.Remove.
	Remove(name string) error
	// Truncate resizes a file by path like os.Truncate.
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making a just-renamed entry durable.
	SyncDir(dir string) error
}

// File is an open file handle: the store appends to its WAL and reads
// entries back from it with ReadAt.
type File interface {
	io.Writer
	io.ReaderAt
	// Sync flushes written data to stable storage.
	Sync() error
	// Close closes the handle.
	Close() error
	// Truncate resizes the open file.
	Truncate(size int64) error
	// Seek repositions the write offset.
	Seek(offset int64, whence int) (int64, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
