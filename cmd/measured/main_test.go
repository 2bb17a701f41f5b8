package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
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

// TestRefusesOutOfRangeCounts: a count below its floor exits 2 naming the
// flag instead of running with a default in its place.
func TestRefusesOutOfRangeCounts(t *testing.T) {
	base := []string{"-dests", "20", "-seed", "7", "-flips=false", "-interval", "1ms", "-max-rounds", "2", "-listen", ""}
	for _, c := range [][]string{
		{"-period", "-1"}, {"-period", "0"}, {"-workers", "-3"}, {"-checkpoint-every", "-4"},
		{"-queue-cap", "-1"}, {"-burst", "-1"}, {"-max-restarts", "-1"}, {"-retries", "-1"},
		{"-fault-transient-every", "-1"}, {"-fault-drop-every", "-1"}, {"-fault-panic-every", "-1"},
	} {
		stderr, exit := measured(t, append(append([]string{}, base...), c...)...)
		if want := c[0] + " must be at least"; exit != 2 || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit %d, stderr %q, want exit 2 and %q", c, exit, stderr, want)
		}
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

// TestUnboundedRunDrainsOnSignal drives the production loop, the one without
// -max-rounds: once the daemon has checkpointed a round, SIGTERM drains it —
// exit 130, the report on stdout — and a restart on the same file recovers
// past round 0.
func TestUnboundedRunDrainsOnSignal(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "loop.ck")
	args := []string{"-dests", "20", "-interval", "1ms", "-checkpoint", ck, "-listen", ""}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(30 * time.Second)
	fail := func(what string) {
		cmd.Process.Kill()
		<-exited
		t.Fatalf("%s within 30s; stderr %q", what, stderr.String())
	}
	for {
		if _, err := os.Stat(ck); err == nil {
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("exited (%v) before its first checkpoint; stderr %q", err, stderr.String())
		case <-deadline:
			fail("no checkpoint")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var err error
	select {
	case err = <-exited:
	case <-deadline:
		fail("no exit after SIGTERM")
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("ended with %v, want exit 130; stderr %q", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "signal received; draining") {
		t.Errorf("stderr %q does not say the signal was received", stderr.String())
	}
	if !strings.Contains(stdout.String(), "loops: routes with >=1 loop") {
		t.Errorf("stdout %q holds no report", stdout.String())
	}

	errs, exit := measured(t, append(args, "-max-rounds", "1")...)
	m := regexp.MustCompile(`recovered from ` + regexp.QuoteMeta(ck) + ` at round (\d+)`).FindStringSubmatch(errs)
	if exit != 0 || m == nil {
		t.Fatalf("restart: exit %d, stderr %q: want a recovery and exit 0", exit, errs)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("restart recovered at round %d, want at least 1", n)
	}
}
