//go:build !linux

package dataset

import "errors"

// mapFloat32 falls back to a copying read where mmap is unavailable. The
// copy has no file identity to remember, so its digest is verified on
// every reload; only zero-copy and the verify-once saving are lost.
func mapFloat32(path string, n int) ([]float32, []byte, bool, fileIdentity, error) {
	fl, raw, isMapped, err := readFloat32(path, n)
	return fl, raw, isMapped, fileIdentity{}, err
}

// fsClock is never consulted here: it settles when an identity may be
// remembered, and this build has none.
func fsClock(string) (int64, error) { return 0, errors.ErrUnsupported }

func unmapRaw([]byte) {}
