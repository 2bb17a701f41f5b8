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

// WriteFile installs data at path atomically; see WriteFileFunc.
func WriteFile(path string, data []byte) error {
	return WriteFileFunc(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileFunc streams a file into place: write receives a temp file in
// path's directory, and once it returns nil the temp file is fsynced,
// renamed over path, and the directory itself fsynced — so a kill mid-write
// leaves the previous file intact and a power loss after a nil return cannot
// lose the rename. The writer is unbuffered; write does its own batching.
// The temp file is removed on every error path (write's own error is
// returned unwrapped), and a successful install sweeps stale "<base>.tmp*"
// siblings left behind by writers killed mid-write — the file's writer is
// assumed to be a single process, which is both the checkpoint and the
// capture contract.
func WriteFileFunc(path string, write func(io.Writer) error) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: temp file for %s: %w", base, err)
	}
	tmpName := tmp.Name()
	installed := false
	defer func() {
		// One cleanup for every failure path: an error anywhere below
		// must never leave the .tmp file behind.
		if !installed {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: syncing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: closing %s: %w", base, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomicio: installing %s: %w", base, err)
	}
	installed = true
	// Writers killed between CreateTemp and Rename leak their randomized
	// temp name forever (no later write ever picks the same name). Sweep
	// them now that a complete file is installed.
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

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
