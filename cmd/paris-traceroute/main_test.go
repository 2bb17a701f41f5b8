package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The tests re-execute the test binary as paris-traceroute itself: with
// asMainEnv set, TestMain runs main() on the process's arguments instead of
// the tests, so output and exit codes are the shipped binary's.
const asMainEnv = "PARIS_TRACEROUTE_TEST_AS_MAIN"

var update = flag.Bool("update", false, "rewrite "+matrixGolden+" from this build's output")

const matrixGolden = "testdata/matrix.golden"

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

// TestOutputGolden pins what the tool prints for every figure scenario under
// every probing method, with -batch off and on (one golden section serves
// both: -batch never changes a route), and for the multipath enumeration.
// A change that means to alter this output rewrites the file with -update
// and shows the diff; any other change must leave it byte-equal.
func TestOutputGolden(t *testing.T) {
	var runs [][]string
	for _, s := range []string{"fig1", "fig3", "fig4", "fig5", "fig6"} {
		for _, m := range []string{"paris-udp", "paris-icmp", "paris-tcp", "classic-udp", "classic-icmp", "tcptraceroute"} {
			runs = append(runs, []string{"-scenario", s, "-method", m})
		}
	}
	runs = append(runs, []string{"-scenario", "fig3", "-flows", "16"})

	var got bytes.Buffer
	for _, args := range runs {
		out, stderr, exit := traceroute(t, args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, exit, stderr)
		}
		fmt.Fprintf(&got, "== %s\n%s", strings.Join(args, " "), out)
		if !slices.Contains(args, "-method") {
			continue // -flows enumerates paths; it has no ladder to batch
		}
		if batched, stderr, exit := traceroute(t, append(args, "-batch")...); exit != 0 || batched != out {
			t.Errorf("%v -batch: exit %d, stderr %q, output differs from the unbatched run:\n%s", args, exit, stderr, batched)
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

// TestRetryBackoffFlagIsGone: the flag went with the transport that read it;
// the tool must say so rather than accept and ignore it.
func TestRetryBackoffFlagIsGone(t *testing.T) {
	_, stderr, exit := traceroute(t, "-scenario", "fig3", "-retry-backoff", "1s")
	if exit != 2 || !strings.Contains(stderr, "flag provided but not defined: -retry-backoff") {
		t.Fatalf("exit %d, stderr %q: want exit 2 naming the unknown flag", exit, stderr)
	}
}
