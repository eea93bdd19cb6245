//go:build linux

package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"unsafe"
)

// hostLittleEndian reports the native byte order once at init; raw .f32
// files are little-endian, so only a little-endian host may reinterpret
// the mapping in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapFloat32 maps a raw little-endian float32 file of exactly n elements
// read-only and reinterprets the mapping in place — the zero-copy reload
// path of the tiered cache. raw is the file's backing bytes (hash them,
// then unmapRaw when the entry dies); isMapped reports whether raw is an
// mmap region that unmapRaw must return; id is the identity of the
// descriptor that was mapped (none on the copying path, which opens the
// file again). The mapping is PROT_READ, so a stray write through the
// reloaded buffer faults instead of silently diverging from the spill
// file.
func mapFloat32(path string, n int) (fl []float32, raw []byte, isMapped bool, id fileIdentity, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, id, err
	}
	defer f.Close()
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return nil, nil, false, id, fmt.Errorf("dataset: fstat %s: %w", path, err)
	}
	if int64(st.Size) != int64(4*n) {
		return nil, nil, false, id, fmt.Errorf("%w: %s is %d bytes, want %d", errSpillCorrupt, path, st.Size, 4*n)
	}
	if !hostLittleEndian || n == 0 {
		fl, raw, isMapped, err = readFloat32(path, n)
		return fl, raw, isMapped, id, err
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, 4*n, syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, false, id, fmt.Errorf("dataset: mmap %s: %w", path, err)
	}
	id = fileIdentity{
		dev: uint64(st.Dev), ino: uint64(st.Ino), size: int64(st.Size),
		mtime: st.Mtim.Nano(), ctime: st.Ctim.Nano(),
	}
	fl = unsafe.Slice((*float32)(unsafe.Pointer(&m[0])), n)
	return fl, m, true, id, nil
}

// fsClock reads the clock of the filesystem holding dir as that
// filesystem stamps a change made now — the ctime of a probe file written
// for the purpose — so it compares with a spill's ctime at whatever
// granularity the filesystem keeps (a kernel tick on ext4/xfs/tmpfs, 1 s
// on ext3, nothing at all to wait for on kernels with multigrain
// timestamps).
func fsClock(dir string) (int64, error) {
	probe := filepath.Join(dir, ".clock")
	if err := os.WriteFile(probe, []byte{0}, 0o644); err != nil {
		return 0, err
	}
	var st syscall.Stat_t
	if err := syscall.Stat(probe, &st); err != nil {
		return 0, fmt.Errorf("dataset: stat %s: %w", probe, err)
	}
	return st.Ctim.Nano(), nil
}

// unmapRaw returns a region obtained from mapFloat32 with isMapped=true.
func unmapRaw(raw []byte) { syscall.Munmap(raw) }
