package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeFile installs data at path.
func writeFile(path string, data []byte) error {
	return WriteFileFunc(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// tmpDebris lists any "<base>.tmp*" siblings of path — the leak the atomic
// writer must never leave behind.
func tmpDebris(t *testing.T, path string) []string {
	t.Helper()
	stale, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	return stale
}

// TestAtomicWriteCleansTempOnError is the regression test for the temp-file
// leak: every error path must remove its temp file, and none may disturb the
// file already installed.
func TestAtomicWriteCleansTempOnError(t *testing.T) {
	dir := t.TempDir()

	// The rename is forced to fail by making the target path a directory.
	target := filepath.Join(dir, "ck")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(target, []byte("round 3")); err == nil {
		t.Fatal("rename onto a directory should fail")
	}
	if stale := tmpDebris(t, target); len(stale) != 0 {
		t.Fatalf("failed install leaked temp files: %v", stale)
	}

	// The encoder callback fails midway, after bytes already reached the
	// temp file: its error comes back as is, no temp file survives, and the
	// previous file is untouched.
	target2 := filepath.Join(dir, "ck2")
	if err := writeFile(target2, []byte("previous")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed midway")
	err := WriteFileFunc(target2, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a checkp")); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("WriteFileFunc returned %v, want the callback's error", err)
	}
	if stale := tmpDebris(t, target2); len(stale) != 0 {
		t.Fatalf("callback failure leaked temp files: %v", stale)
	}
	if got, err := os.ReadFile(target2); err != nil || string(got) != "previous" {
		t.Fatalf("failed write disturbed the installed file: %q %v", got, err)
	}
}

// TestAtomicWriteSweepsStaleTemps: a writer killed between CreateTemp and
// Rename leaves a randomized temp name no later write reuses; the next
// successful write must sweep it.
func TestAtomicWriteSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck")
	for _, stale := range []string{target + ".tmp1111", target + ".tmp2222"} {
		if err := os.WriteFile(stale, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bystander := filepath.Join(dir, "other.tmp999")
	if err := os.WriteFile(bystander, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileFunc(target, func(w io.Writer) error {
		// Streamed in pieces, as the checkpoint encoder does.
		for _, piece := range []string{"round", " ", "7"} {
			if _, err := io.WriteString(w, piece); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stale := tmpDebris(t, target); len(stale) != 0 {
		t.Fatalf("successful write left stale temps: %v", stale)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("sweep must only touch its own base's temps: %v", err)
	}
	if got, err := os.ReadFile(target); err != nil || string(got) != "round 7" {
		t.Fatalf("written content wrong: %q %v", got, err)
	}
}

// TestFileInstallsAtCommit: what a File is written reaches path only at
// Commit. Until then path keeps the file it held, and after Abort it still
// does; neither leaves a temp file.
func TestFileInstallsAtCommit(t *testing.T) {
	target := filepath.Join(t.TempDir(), "capture")
	if err := writeFile(target, []byte("header")); err != nil {
		t.Fatal(err)
	}
	for _, commit := range []bool{false, true} {
		f, err := Create(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, piece := range []string{"header", "+records"} {
			if _, err := io.WriteString(f, piece); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(target); err != nil || string(got) != "header" {
			t.Fatalf("commit=%v: path holds %q %v before the File is done", commit, got, err)
		}
		want := "header"
		if commit {
			want = "header+records"
			if err := f.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			f.Abort()
		}
		if got, err := os.ReadFile(target); err != nil || string(got) != want {
			t.Fatalf("commit=%v: path holds %q %v, want %q", commit, got, err, want)
		}
		if stale := tmpDebris(t, target); len(stale) != 0 {
			t.Fatalf("commit=%v: temp files left: %v", commit, stale)
		}
	}
}
