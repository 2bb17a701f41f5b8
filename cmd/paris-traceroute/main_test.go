package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer/live"
)

// The tests re-execute the test binary as paris-traceroute itself: with
// asMainEnv set, TestMain runs main() on the process's arguments instead of
// the tests, so output and exit codes are the shipped binary's.
const asMainEnv = "PARIS_TRACEROUTE_TEST_AS_MAIN"

// simNetEnv, set in a re-executed binary's environment, makes its -live mode
// probe reorderNet through cli.Dial and a live.SimConn that delivers
// responses newest-first, instead of the host's raw sockets.
const simNetEnv = "PARIS_TRACEROUTE_TEST_SIM_NET"

var (
	update = flag.Bool("update", false, "rewrite "+matrixGolden+" from this build's output")
	record = flag.Bool("record", false, "re-record "+reorderCapture+" from a -live run")
)

const (
	matrixGolden = "testdata/matrix.golden"
	// reorderCapture is the replay corpus' per-trace capture: constant-
	// sequence TCP probes under reordered arrival, which pins the
	// oldest-unanswered attribution.
	reorderCapture = "../../internal/tracer/replay/testdata/corpus/reorder-tcptraceroute.pcap"
)

// unbatchedReplayWarning is what the replay of reorderCapture prints on
// stderr without -batch. The capture was recorded with -batch, whose window
// probes past each destination's hop; the unbatched ladder stops at the
// destination and never asks for those overshoot probes, and they are the
// 28 captured exchanges it leaves unserved. The 4 junk records, answers the
// recording mux discarded, are no divergence.
var unbatchedReplayWarning = filepath.Base(os.Args[0]) + ": replay: 28 captured exchange(s) never served, 4 junk record(s) — the replayed run diverges from the captured one\n"

// wantStderr is what the tool prints on stderr for args: the unbatched
// replay's warning, and nothing for every other run — a replay under the
// flags the capture was recorded with serves every exchange it holds.
func wantStderr(args []string) string {
	if slices.Contains(args, "-replay") && !slices.Contains(args, "-batch") {
		return unbatchedReplayWarning
	}
	return ""
}

// reorderNet is the network reorderCapture is recorded over: four
// destinations, with per-packet balancing and flips off so that a probe is
// answered the same way whenever it is sent.
func reorderNet() *topo.Scenario {
	gc := simtest.Free(4)
	gc.Seed = 107
	return topo.Generate(gc)
}

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		if os.Getenv(simNetEnv) != "" {
			sc := reorderNet()
			conn := &live.SimConn{Respond: simtest.Responder(sc.Net), Sched: live.SimSchedule{Reorder: true}}
			cli.Dial = func() (netip.Addr, live.PacketConn, error) { return sc.Net.Source(), conn, nil }
		}
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
// flows a single trace does not send). Batched, the replay runs under the
// flags the capture was recorded with and serves every exchange, so it must
// print no warning: the junk the capture holds, answers the recording mux
// discarded, is no divergence. Unbatched, it prints exactly the warning
// wantStderr names.
func TestBatchFlagChangesNoRoute(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "fig3", "-method", "classic-udp"},
		{"-replay", reorderCapture, "-method", "tcptraceroute", "-retries", "0"},
	} {
		plain, stderr, exit := traceroute(t, args...)
		if exit != 0 || !strings.Contains(plain, "halt: destination") || stderr != wantStderr(args) {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q, want stderr %q", args, exit, plain, stderr, wantStderr(args))
		}
		batched, stderr, exit := traceroute(t, append(args, "-batch")...)
		if exit != 0 || stderr != "" {
			t.Fatalf("%v -batch: exit %d, stderr %q", args, exit, stderr)
		}
		if batched != plain {
			t.Errorf("%v: -batch changed the output\nwithout:\n%s\nwith:\n%s", args, plain, batched)
		}
	}
}

// TestOutputGolden pins what the tool prints for every figure scenario under
// every probing method, for the multipath enumeration, and for a replay of
// the corpus' per-trace capture (the other two corpus captures hold
// campaigns, whose flows a single trace does not send). Every -method run is
// also made with -batch against the same section: -batch only widens the
// ladder's window, so it never changes a route. Every run's stderr is held
// to wantStderr: empty, but for the unbatched replay's pinned warning.
// A change that means to alter this output rewrites the file with -update
// and shows the diff; any other change must leave it byte-equal.
func TestOutputGolden(t *testing.T) {
	var runs [][]string
	for _, s := range []string{"fig1", "fig3", "fig4", "fig5", "fig6"} {
		for _, m := range []string{"paris-udp", "paris-icmp", "paris-tcp", "classic-udp", "classic-icmp", "tcptraceroute"} {
			runs = append(runs, []string{"-scenario", s, "-method", m})
		}
	}
	runs = append(runs,
		[]string{"-scenario", "fig3", "-flows", "16"},
		[]string{"-replay", reorderCapture, "-method", "tcptraceroute", "-retries", "0"})

	var got bytes.Buffer
	for _, args := range runs {
		out, stderr, exit := traceroute(t, args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, exit, stderr)
		}
		if want := wantStderr(args); stderr != want {
			t.Errorf("%v: stderr %q, want %q", args, stderr, want)
		}
		fmt.Fprintf(&got, "== %s\n%s", strings.Join(args, " "), out)
		if !slices.Contains(args, "-method") {
			continue // -flows enumerates paths; it has no ladder to batch
		}
		args = append(args, "-batch")
		if batched, stderr, exit := traceroute(t, args...); exit != 0 || batched != out || stderr != wantStderr(args) {
			t.Errorf("%v: exit %d, stderr %q, output differs from the unbatched run:\n%s", args, exit, stderr, batched)
		}
	}
	if *update {
		if err := os.WriteFile(matrixGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(matrixGolden)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n"); !slices.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("output differs from %s at line %d (rerun with -update to accept):\ngot  %q\nwant %q",
			matrixGolden, i+1, g[min(i, len(g)-1)], w[min(i, len(w)-1)])
	}
}

// TestRecordCorpus records reorderCapture with the binary that replays it:
// -live -capture over reorderNet, then -replay of the fresh capture under
// the same flags. The capture is installed only if the replay printed what
// the live run printed, less the live run's "mux:" health line, and served
// every exchange the capture holds. Capture timestamps are the wall clock,
// so a re-record never reproduces the committed bytes: it runs only under
// -record, and TestOutputGolden -update then rewrites the replay's section
// of the golden.
func TestRecordCorpus(t *testing.T) {
	if !*record {
		t.Skip("re-records the replay corpus only under -record")
	}
	var dests []string
	for _, d := range reorderNet().Dests {
		dests = append(dests, d.String())
	}
	fresh := filepath.Join(t.TempDir(), "reorder-tcptraceroute.pcap")
	flags := []string{"-method", "tcptraceroute", "-batch", "-retries", "0"}
	t.Setenv(simNetEnv, "1")
	liveOut, stderr, exit := traceroute(t, append([]string{"-live", "-dest", strings.Join(dests, ","), "-capture", fresh}, flags...)...)
	if exit != 0 {
		t.Fatalf("live run: exit %d: %s", exit, stderr)
	}
	t.Setenv(simNetEnv, "")
	replayOut, stderr, exit := traceroute(t, append([]string{"-replay", fresh}, flags...)...)
	// Reordering delivers answers the live mux discarded, and the capture
	// holds them as junk, which is no divergence: the replay must serve
	// every exchange and say nothing.
	if exit != 0 || stderr != "" {
		t.Fatalf("replay: exit %d: %s", exit, stderr)
	}
	if routes, _, ok := strings.Cut(liveOut, "\nmux: "); !ok || routes != replayOut {
		t.Fatalf("the replay diverges from the live run; not installing %s\nlive:\n%s\nreplayed:\n%s", reorderCapture, liveOut, replayOut)
	}
	raw, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reorderCapture, raw, 0o644); err != nil {
		t.Fatal(err)
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

// TestRefusesOutOfRangeCounts: a count below its floor exits 2 naming the
// flag instead of running with a default in its place.
func TestRefusesOutOfRangeCounts(t *testing.T) {
	for _, c := range [][]string{{"-flows", "-3"}, {"-flows", "0"}, {"-retries", "-1"}} {
		_, stderr, exit := traceroute(t, append([]string{"-scenario", "fig3"}, c...)...)
		if want := c[0] + " must be at least"; exit != 2 || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit %d, stderr %q, want exit 2 and %q", c, exit, stderr, want)
		}
	}
}
