package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests re-execute the test binary as measured itself: with asMainEnv
// set, TestMain runs main() on the process's arguments instead of the tests,
// so exit codes and stderr are the shipped binary's.
const asMainEnv = "MEASURED_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func measured(t *testing.T, args ...string) (stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return errb.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return errb.String(), 0
}

// TestCaptureRequiresLive: the simulator is replayable from its seed, so
// -capture without -live is refused before anything runs.
func TestCaptureRequiresLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.pcap")
	stderr, exit := measured(t, "-capture", path, "-listen", "")
	if exit != 2 || !strings.Contains(stderr, "-capture requires -live") {
		t.Fatalf("exit %d, stderr %q: want exit 2 naming the flag", exit, stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("the refused run created the capture file")
	}
}

// TestRecoversFromCheckpoint is the daemon-soak job in miniature: a bounded
// run checkpoints every round, and a second process started on the same file
// announces the round it recovered at instead of starting from zero.
func TestRecoversFromCheckpoint(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "soak.ck")
	soak := []string{"-dests", "20", "-seed", "7", "-flips=false", "-period", "2", "-workers", "2",
		"-interval", "1ms", "-max-rounds", "3", "-listen", "", "-checkpoint", ck}
	stderr, exit := measured(t, soak...)
	if exit != 0 || strings.Contains(stderr, "recovered from") {
		t.Fatalf("first run: exit %d, stderr %q: want a fresh start and exit 0", exit, stderr)
	}
	stderr, exit = measured(t, soak...)
	if exit != 0 || !strings.Contains(stderr, "recovered from "+ck+" at round 3") {
		t.Fatalf("second run: exit %d, stderr %q: want recovery at round 3 and exit 0", exit, stderr)
	}
	stderr, exit = measured(t, append(soak, "-fresh")...)
	if exit != 0 || strings.Contains(stderr, "recovered from") {
		t.Fatalf("-fresh: exit %d, stderr %q: want the checkpoint ignored", exit, stderr)
	}
}
