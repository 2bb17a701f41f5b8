//go:build linux || darwin

package replay

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// mapFile maps the file at path read-only. An empty file maps to no bytes,
// and no mapping: mmap refuses a length of 0.
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	switch {
	case size == 0:
		return nil, nil
	case size > math.MaxInt:
		return nil, fmt.Errorf("%s: %d bytes is more than this platform can map", path, size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return b, nil
}

// unmap releases what mapFile mapped.
func unmap(b []byte) {
	if len(b) > 0 {
		syscall.Munmap(b)
	}
}
