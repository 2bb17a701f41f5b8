// Package atomicio provides crash-safe file installation: a file either
// appears complete or not at all, never torn. It is the one write path under
// the campaign and daemon checkpoints (internal/ckpt streams into it) and
// the pcap capture sink, all of which promise that a kill at any instant
// leaves either the previous file or a fully-written successor on disk.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileFunc streams a file into place through a File: write receives
// it, and once write returns nil the File is committed. write's own error
// is returned unwrapped, and the File is then aborted.
func WriteFileFunc(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// File is a file on its way to path: a temp file in path's directory that
// Commit installs and Abort removes. Until one of them returns, path keeps
// whatever it held. Writes are unbuffered; the writer does its own batching.
// A File is for one goroutine at a time.
type File struct {
	tmp  *os.File
	path string
}

// Create opens a File that Commit will install at path.
func Create(path string) (*File, error) {
	base := filepath.Base(path)
	tmp, err := os.CreateTemp(filepath.Dir(path), base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: temp file for %s: %w", base, err)
	}
	return &File{tmp: tmp, path: path}, nil
}

// Write appends p to the temp file.
func (f *File) Write(p []byte) (int, error) { return f.tmp.Write(p) }

// Commit fsyncs the temp file, renames it over path and fsyncs the
// directory — so a kill mid-write leaves the previous file intact and a
// power loss after a nil return cannot lose the rename. The temp file is
// removed on every error path, and a successful install sweeps stale
// "<base>.tmp*" siblings left behind by writers killed mid-write — the
// file's writer is assumed to be a single process, which is both the
// checkpoint and the capture contract.
func (f *File) Commit() error {
	dir, base := filepath.Dir(f.path), filepath.Base(f.path)
	if err := f.tmp.Sync(); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: syncing %s: %w", base, err)
	}
	if err := f.tmp.Close(); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: closing %s: %w", base, err)
	}
	if err := os.Rename(f.tmp.Name(), f.path); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: installing %s: %w", base, err)
	}
	// Writers killed between Create and Commit leak their randomized temp
	// name forever (no later write ever picks the same name). Sweep them now
	// that a complete file is installed.
	if stale, err := filepath.Glob(filepath.Join(dir, base+".tmp*")); err == nil {
		for _, s := range stale {
			os.Remove(s)
		}
	}
	// The rename is a directory update; until the directory is on disk a
	// power loss can still roll the install back.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("atomicio: syncing directory of %s: %w", base, err)
	}
	return nil
}

// Abort closes and removes the temp file, leaving path as it was.
func (f *File) Abort() {
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
