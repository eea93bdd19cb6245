package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pressio"
)

// Folder walks a directory for data files matching a glob pattern and
// serves them through the extension-dispatching file loader — the
// folder_loader + io_loader pair of the paper's Figure 2.
//
// Two on-disk formats are understood, dispatched by extension as the
// paper's io_loader dispatches .bin vs .h5:
//
//   - name_D0xD1xD2.f32 / .f64 — raw little-endian arrays with the shape
//     and element type encoded in the file name (the convention used for
//     the SDRBench/Hurricane binaries).
//   - *.pdat — the self-describing pressio.Data binary encoding.
type Folder struct {
	dir     string
	pattern string
	entries []Metadata
}

// NewFolder scans dir for files matching pattern (a filepath.Match glob
// against the base name, e.g. "*.f32") and returns a loader over them in
// sorted name order.
func NewFolder(dir, pattern string) (*Folder, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("folder: %w", err)
	}
	f := &Folder{dir: dir, pattern: pattern}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		ok, err := filepath.Match(pattern, de.Name())
		if err != nil {
			return nil, fmt.Errorf("folder: bad pattern %q: %w", pattern, err)
		}
		if !ok {
			continue
		}
		path := filepath.Join(dir, de.Name())
		meta, err := FileMetadata(path)
		if err != nil {
			return nil, err
		}
		f.entries = append(f.entries, meta)
	}
	sort.Slice(f.entries, func(i, j int) bool { return f.entries[i].Name < f.entries[j].Name })
	return f, nil
}

// FileMetadata derives Metadata from a path without reading the payload
// (raw files) or by reading only the header (pdat files).
func FileMetadata(path string) (Metadata, error) {
	base := filepath.Base(path)
	ext := filepath.Ext(base)
	switch ext {
	case ".f32", ".f64":
		dt := pressio.DTypeFloat32
		if ext == ".f64" {
			dt = pressio.DTypeFloat64
		}
		stem := strings.TrimSuffix(base, ext)
		us := strings.LastIndex(stem, "_")
		if us < 0 {
			return Metadata{}, fmt.Errorf("folder: %s: raw file name needs _D0xD1x... dims suffix", base)
		}
		var dims []int
		for _, part := range strings.Split(stem[us+1:], "x") {
			n, err := strconv.Atoi(part)
			if err != nil || n <= 0 {
				return Metadata{}, fmt.Errorf("folder: %s: bad dims suffix %q", base, stem[us+1:])
			}
			dims = append(dims, n)
		}
		attrs := pressio.Options{}
		attrs.Set("dataset:file", base)
		return Metadata{Name: stem[:us], DType: dt, Dims: dims, Path: path, Attrs: attrs}, nil
	case ".pdat":
		fh, err := os.Open(path)
		if err != nil {
			return Metadata{}, err
		}
		defer fh.Close()
		var head [8]byte
		if _, err := fh.ReadAt(head[:], 0); err != nil {
			return Metadata{}, fmt.Errorf("folder: %s: short header", base)
		}
		dt := pressio.DType(binary.LittleEndian.Uint32(head[:]))
		nd := int(binary.LittleEndian.Uint32(head[4:]))
		dimBuf := make([]byte, 8*nd)
		if _, err := fh.ReadAt(dimBuf, 8); err != nil {
			return Metadata{}, fmt.Errorf("folder: %s: short dims", base)
		}
		dims := make([]int, nd)
		for i := range dims {
			dims[i] = int(binary.LittleEndian.Uint64(dimBuf[8*i:]))
		}
		attrs := pressio.Options{}
		attrs.Set("dataset:file", base)
		return Metadata{Name: strings.TrimSuffix(base, ext), DType: dt, Dims: dims, Path: path, Attrs: attrs}, nil
	}
	return Metadata{}, fmt.Errorf("folder: %s: unsupported extension %q", base, ext)
}

// LoadFile reads one data file, dispatching on its extension; it is the
// io_loader entry point and is also usable standalone.
func LoadFile(meta Metadata) (*pressio.Data, error) {
	raw, err := os.ReadFile(meta.Path)
	if err != nil {
		return nil, err
	}
	switch filepath.Ext(meta.Path) {
	case ".f32", ".f64":
		out := pressio.New(meta.DType, meta.Dims...)
		if len(raw) != out.ByteSize() {
			return nil, fmt.Errorf("folder: %s: %d bytes, metadata says %d", meta.Path, len(raw), out.ByteSize())
		}
		if meta.DType == pressio.DTypeFloat32 {
			dst := out.Float32()
			for i := range dst {
				dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		} else {
			dst := out.Float64()
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		return out, nil
	case ".pdat":
		var out pressio.Data
		if err := out.UnmarshalBinary(raw); err != nil {
			return nil, fmt.Errorf("folder: %s: %w", meta.Path, err)
		}
		return &out, nil
	}
	return nil, fmt.Errorf("folder: %s: unsupported extension", meta.Path)
}

// WriteRaw writes data as a raw little-endian file with the naming
// convention NewFolder parses: dir/name_D0xD1xD2.f32 (or .f64). It
// returns the path written.
func WriteRaw(dir, name string, data *pressio.Data) (string, error) {
	path, buf, err := encodeRaw(dir, name, data)
	if err != nil {
		return "", err
	}
	return path, writeFileAtomic(path, buf)
}

// encodeRaw is WriteRaw without the write: the path and the file's bytes,
// for callers that also want their digest.
func encodeRaw(dir, name string, data *pressio.Data) (path string, buf []byte, err error) {
	ext := ".f32"
	if data.DType() == pressio.DTypeFloat64 {
		ext = ".f64"
	} else if data.DType() != pressio.DTypeFloat32 {
		return "", nil, fmt.Errorf("folder: WriteRaw supports float32/float64, got %v", data.DType())
	}
	parts := make([]string, len(data.Dims()))
	for i, d := range data.Dims() {
		parts[i] = strconv.Itoa(d)
	}
	path = filepath.Join(dir, fmt.Sprintf("%s_%s%s", name, strings.Join(parts, "x"), ext))
	buf = make([]byte, 0, data.ByteSize())
	if data.DType() == pressio.DTypeFloat32 {
		for _, v := range data.Float32() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	} else {
		for _, v := range data.Float64() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return path, buf, nil
}

// writeFileAtomic publishes buf under path by writing a sibling temp file
// and renaming it over. A reader never sees a partial file, a process
// killed mid-write leaves the old file (or none) under the final name, and
// a mapping of the file it replaces keeps its inode and its bytes. The
// data is not fsynced: everything written this way is re-hashed before it
// is trusted after a restart (spill sidecars, Manifest.Verify).
func writeFileAtomic(path string, buf []byte) error { return publish(path, buf, nil) }

// publish is writeFileAtomic calling written, if non-nil, with the temp
// file open for reading and writing once buf is in it, before the rename.
func publish(path string, buf []byte, written func(*os.File)) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil && written != nil {
		written(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Name implements Plugin.
func (f *Folder) Name() string { return "folder" }

// Len implements Plugin.
func (f *Folder) Len() int { return len(f.entries) }

// LoadMetadata implements Plugin.
func (f *Folder) LoadMetadata(i int) (Metadata, error) {
	if err := checkIndex(f, i); err != nil {
		return Metadata{}, err
	}
	return f.entries[i], nil
}

// LoadData implements Plugin.
func (f *Folder) LoadData(i int) (*pressio.Data, error) {
	if err := checkIndex(f, i); err != nil {
		return nil, err
	}
	return LoadFile(f.entries[i])
}

// LoadMetadataAll implements Plugin (already resident: no I/O).
func (f *Folder) LoadMetadataAll() ([]Metadata, error) {
	return append([]Metadata(nil), f.entries...), nil
}

// LoadDataAll implements Plugin.
func (f *Folder) LoadDataAll() ([]*pressio.Data, error) { return loadDataAll(f) }

// SetOptions implements Plugin.
func (f *Folder) SetOptions(pressio.Options) error { return nil }

// Options implements Plugin.
func (f *Folder) Options() pressio.Options {
	o := pressio.Options{}
	o.Set("folder:dir", f.dir)
	o.Set("folder:pattern", f.pattern)
	return o
}
