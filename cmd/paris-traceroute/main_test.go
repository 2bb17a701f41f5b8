package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests re-execute the test binary as paris-traceroute itself: with
// asMainEnv set, TestMain runs main() on the process's arguments instead of
// the tests, so output and exit codes are the shipped binary's.
const asMainEnv = "PARIS_TRACEROUTE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func traceroute(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var outb, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outb, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return outb.String(), errb.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return outb.String(), errb.String(), 0
}

// TestBatchFlagChangesNoRoute: -batch only widens the ladder's window, so
// what the tool prints is the same with and without it — through the
// simulator (fig3's loop under classic UDP) and replaying a committed
// capture (the corpus' per-trace one; the other two hold campaigns, whose
// flows a single trace does not send).
func TestBatchFlagChangesNoRoute(t *testing.T) {
	capture := filepath.Join("..", "..", "internal", "tracer", "replay", "testdata", "corpus", "reorder-tcptraceroute.pcap")
	for _, args := range [][]string{
		{"-scenario", "fig3", "-method", "classic-udp"},
		{"-replay", capture, "-method", "tcptraceroute", "-retries", "0"},
	} {
		plain, stderr, exit := traceroute(t, args...)
		if exit != 0 || !strings.Contains(plain, "halt: destination") {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q", args, exit, plain, stderr)
		}
		batched, stderr, exit := traceroute(t, append(args, "-batch")...)
		if exit != 0 {
			t.Fatalf("%v -batch: exit %d, stderr %q", args, exit, stderr)
		}
		if batched != plain {
			t.Errorf("%v: -batch changed the output\nwithout:\n%s\nwith:\n%s", args, plain, batched)
		}
	}
}

// TestRetryBackoffFlagIsGone: the flag went with the transport that read it;
// the tool must say so rather than accept and ignore it.
func TestRetryBackoffFlagIsGone(t *testing.T) {
	_, stderr, exit := traceroute(t, "-scenario", "fig3", "-retry-backoff", "1s")
	if exit != 2 || !strings.Contains(stderr, "flag provided but not defined: -retry-backoff") {
		t.Fatalf("exit %d, stderr %q: want exit 2 naming the unknown flag", exit, stderr)
	}
}
