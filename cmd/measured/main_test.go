package main

import (
	"bytes"
	"errors"
	"flag"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// The tests re-execute the test binary as measured itself: with asMainEnv
// set, TestMain runs main() on the process's arguments instead of the tests,
// so exit codes and stderr are the shipped binary's.
const asMainEnv = "MEASURED_TEST_AS_MAIN"

// simNetEnv, set in a re-executed binary's environment, makes its -live mode
// probe simNet through cli.Dial and a live.SimConn instead of the host's raw
// sockets.
const simNetEnv = "MEASURED_TEST_SIM_NET"

// measured records no capture of the replay corpus; the flag is declared so
// that go test ./cmd/... -run TestRecordCorpus -record reaches the binaries
// that do.
var _ = flag.Bool("record", false, "re-record the replay corpus (no capture is recorded here)")

// simNet is the topology behind simNetEnv.
func simNet() *topo.Scenario {
	gc := topo.DefaultGenConfig()
	gc.Seed, gc.Destinations = 29, 6
	return topo.Generate(gc)
}

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		if os.Getenv(simNetEnv) != "" {
			sc := simNet()
			conn := &live.SimConn{Respond: simtest.Responder(sc.Net)}
			cli.Dial = func() (netip.Addr, live.PacketConn, error) { return sc.Net.Source(), conn, nil }
		}
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

// TestLiveCapture: the daemon probes -live over the simulated network, runs
// its rounds and installs a capture of them that replay loads whole: every
// destination probed, no record it cannot place.
func TestLiveCapture(t *testing.T) {
	var dests []string
	for _, d := range simNet().Dests {
		dests = append(dests, d.String())
	}
	path := filepath.Join(t.TempDir(), "run.pcap")
	t.Setenv(simNetEnv, "1")
	stderr, exit := measured(t, "-live", "-live-dests", strings.Join(dests, ","), "-capture", path, "-retries", "0",
		"-period", "1", "-workers", "2", "-interval", "1ms", "-max-rounds", "2", "-listen", "")
	if exit != 0 || !strings.Contains(stderr, "record(s) written to "+path) {
		t.Fatalf("exit %d, stderr %q: want exit 0 and the capture installed", exit, stderr)
	}
	rt, err := replay.Open(path, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Destinations(); len(got) != len(dests) || rt.Junk() != 0 {
		t.Errorf("the capture probes %v with %d junk record(s), want all of %v and none", got, rt.Junk(), dests)
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
