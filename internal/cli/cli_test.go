package cli

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// signalsEnv makes the re-executed test binary a process that probes under
// SignalContext and never finishes its drain (TestSecondSignalForcesExit).
const signalsEnv = "CLI_TEST_SIGNALS"

func TestMain(m *testing.M) {
	if os.Getenv(signalsEnv) != "" {
		ctx := SignalContext()
		fmt.Println("probing")
		<-ctx.Done()
		fmt.Println("draining")
		select {}
	}
	os.Exit(m.Run())
}

// TestSecondSignalForcesExit: the first signal cancels the context and lets
// the run drain; a second one, with the drain stuck, exits 130 at once — the
// behaviour all three binaries get from the one SignalContext.
func TestSecondSignalForcesExit(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), signalsEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(out)
	for _, want := range []string{"probing", "draining"} {
		if !lines.Scan() || lines.Text() != want {
			t.Fatalf("child said %q, want %q", lines.Text(), want)
		}
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != exitInterrupted {
		t.Fatalf("child ended with %v, want exit %d", err, exitInterrupted)
	}
	for _, want := range []string{"signal received; draining", "second signal: forced immediate exit"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not say %q", stderr.String(), want)
		}
	}
}

func TestExitCode(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{errors.New("trace failed"), exitFailure},
		{Usagef("-resume requires -checkpoint"), exitUsage},
		{fmt.Errorf("opening: %w", Usagef("no raw sockets")), exitUsage},
		{fmt.Errorf("interrupted: %w", context.Canceled), exitInterrupted},
	} {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// parseLive registers a Live group the way a binary with a -replay mode and
// two flags of its own does, and parses args into it.
func parseLive(t *testing.T, listFlag string, args ...string) (*Live, *flag.FlagSet) {
	t.Helper()
	var l Live
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	l.Register(fs, listFlag, true)
	fs.String("checkpoint", "", "")
	fs.Bool("resume", false, "")
	fs.Int("rounds", 1, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &l, fs
}

func TestDests(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "dests.txt")
	if err := os.WriteFile(file, []byte("# targets\n192.0.2.1\n198.51.100.7 # trailing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, b := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("198.51.100.7")
	for _, c := range []struct {
		name string
		args []string
		want []netip.Addr
		err  string // substring of the usage error; empty: success
	}{
		{"comma list", []string{"-live", "-live-dests", "192.0.2.1, 198.51.100.7"}, []netip.Addr{a, b}, ""},
		{"one address", []string{"-live", "-live-dests", "198.51.100.7"}, []netip.Addr{b}, ""},
		{"file", []string{"-live", "-live-dests-file", file}, []netip.Addr{a, b}, ""},
		{"both", []string{"-live", "-live-dests", "192.0.2.1", "-live-dests-file", file}, nil, "-live-dests and -live-dests-file are mutually exclusive"},
		{"neither, live", []string{"-live"}, nil, "-live requires -live-dests A.B.C.D[,...] or -live-dests-file FILE"},
		{"neither, replay", []string{"-replay", "run.pcap"}, nil, ""},
		{"list pins a replay", []string{"-replay", "run.pcap", "-live-dests", "198.51.100.7,192.0.2.1"}, []netip.Addr{b, a}, ""},
		{"duplicate", []string{"-live", "-live-dests", "192.0.2.1,198.51.100.7,192.0.2.1"}, nil, "-live-dests: live: destination list names 192.0.2.1 twice"},
		{"not an address", []string{"-live", "-live-dests", "192.0.2.1,example.net"}, nil, `"example.net" is not an IPv4 address`},
		{"empty entry", []string{"-live", "-live-dests", "192.0.2.1,"}, nil, "is not an IPv4 address"},
		{"IPv6", []string{"-live", "-live-dests", "2001:db8::1"}, nil, "is not an IPv4 address"},
		{"missing file", []string{"-live", "-live-dests-file", filepath.Join(dir, "absent")}, nil, "absent"},
	} {
		l, _ := parseLive(t, "live-dests", c.args...)
		got, err := l.Dests()
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || exitCode(err) != exitUsage):
			t.Errorf("%s: error %v (exit %d), want a usage error containing %q", c.name, err, exitCode(err), c.err)
		case fmt.Sprint(got) != fmt.Sprint(c.want):
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	// paris-traceroute registers the list as -dest; errors name it so.
	l, _ := parseLive(t, "dest", "-live")
	if _, err := l.Dests(); err == nil || !strings.Contains(err.Error(), "-live requires -dest ") {
		t.Errorf("error %v does not name -dest", err)
	}
}

// TestValidate is the mode/flag exclusion matrix: the binary declares
// -checkpoint and -resume meaningless offline, -rounds fine everywhere.
func TestValidate(t *testing.T) {
	for _, c := range []struct {
		args string
		err  string // empty: accepted
	}{
		{"", ""},
		{"-rounds 3 -checkpoint f -resume", ""},
		{"-live -live-dests 192.0.2.1 -capture run.pcap -checkpoint f -resume", ""},
		{"-capture run.pcap", "-capture requires -live"},
		{"-replay run.pcap", ""},
		{"-replay run.pcap -rounds 3 -retries 0 -live-dests 192.0.2.1", ""},
		{"-replay run.pcap -live", "-replay is an offline mode and excludes -live"},
		{"-replay run.pcap -capture again.pcap", "-replay is an offline mode and excludes -capture"},
		{"-replay run.pcap -checkpoint f", "-replay is an offline mode and excludes -checkpoint"},
		{"-replay run.pcap -resume", "-replay is an offline mode and excludes -resume"},
	} {
		l, fs := parseLive(t, "live-dests", strings.Fields(c.args)...)
		err := l.Validate(fs, "checkpoint", "resume")
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%q: %v", c.args, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || exitCode(err) != exitUsage):
			t.Errorf("%q: error %v (exit %d), want a usage error containing %q", c.args, err, exitCode(err), c.err)
		}
	}
}

// parseTopo registers a Topo group the way anomaly-study does.
func parseTopo(t *testing.T, args ...string) *Topo {
	t.Helper()
	var tp Topo
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tp.Register(fs, 30)
	fs.BoolVar(&tp.Flips, "flips", true, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &tp
}

func TestTopoGenerate(t *testing.T) {
	sc, err := parseTopo(t).Generate()
	if err != nil || len(sc.Dests) != 30 || sc.Net.DynamicsEnabled() {
		t.Fatalf("defaults: %v, %d dests, want 30 with dynamics off", err, len(sc.Dests))
	}
	sc, err = parseTopo(t, "-dests", "40", "-delay", "1").Generate()
	if err != nil || len(sc.Dests) != 40 || !sc.Net.DynamicsEnabled() {
		t.Fatalf("-dests 40 -delay 1: %v, %d dests, want 40 with dynamics on", err, len(sc.Dests))
	}
	if _, err := parseTopo(t, "-dests", "0").Generate(); exitCode(err) != exitUsage {
		t.Errorf("-dests 0: %v, want a usage error", err)
	}
	// Out-of-range dynamics intensities are refused, not clamped.
	for _, args := range [][]string{
		{"-delay", "-1"}, {"-delay", "NaN"}, {"-delay", "+Inf"},
		{"-load", "-0.01"}, {"-load", "0.96"}, {"-load", "2"}, {"-load", "NaN"},
		{"-churn", "-1"}, {"-churn", "1.01"}, {"-churn", "5"}, {"-churn", "NaN"},
	} {
		if _, err := parseTopo(t, args...).Config(); exitCode(err) != exitUsage || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: %v, want a usage error naming %s", args, err, args[0])
		}
	}
	if cfg, err := parseTopo(t, "-load", "0.95", "-churn", "1").Config(); err != nil || cfg.Load != 0.95 || cfg.Churn != 1 {
		t.Errorf("-load 0.95 -churn 1: %v, load %v churn %v, want the upper edges accepted", err, cfg.Load, cfg.Churn)
	}
	if cfg, err := parseTopo(t, "-delay", "0", "-load", "0", "-churn", "0").Config(); err != nil || cfg.Delay != 0 || cfg.Load != 0 || cfg.Churn != 0 {
		t.Errorf("-delay 0 -load 0 -churn 0: %v, want the lower edges accepted", err)
	}
}

// simLive is a Live group parsed from args whose dial hook answers the mux
// from a generated topology instead of raw sockets.
func simLive(t *testing.T, args ...string) (*Live, *live.SimConn, *topo.Scenario) {
	t.Helper()
	gc := topo.DefaultGenConfig()
	gc.Seed, gc.Destinations = 11, 8
	sc := topo.Generate(gc)
	conn := &live.SimConn{Respond: func(probe []byte) ([]byte, bool) {
		resp, _, ok := sc.Net.Exchange(probe)
		return resp, ok
	}}
	l, _ := parseLive(t, "live-dests", append([]string{"-live", "-retries", "0"}, args...)...)
	l.dial = func() (netip.Addr, live.PacketConn, error) { return sc.Net.Source(), conn, nil }
	return l, conn, sc
}

// readPcap reads every record of the pcap at path.
func readPcap(path string) ([]pcap.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pcap.ReadAll(f)
}

// checkCapture asserts the pcap at path is complete: readable to its end,
// holding every datagram the conn saw sent and answers besides, and loadable
// by the replay transport.
func checkCapture(t *testing.T, path string, conn *live.SimConn, src netip.Addr) {
	t.Helper()
	recs, err := readPcap(path)
	if err != nil {
		t.Fatalf("the installed capture is not readable: %v", err)
	}
	sent := 0
	for _, r := range recs {
		if len(r.Data) >= 20 && netip.AddrFrom4([4]byte(r.Data[12:16])) == src {
			sent++
		}
	}
	if sent == 0 || sent != conn.SendCount() {
		t.Errorf("capture holds %d probes, the conn saw %d sent", sent, conn.SendCount())
	}
	if sent == len(recs) {
		t.Error("capture holds no response")
	}
	if _, err := replay.Open(path, replay.Config{}); err != nil {
		t.Errorf("replay refuses the capture: %v", err)
	}
}

// TestCloseInstallsCompleteCapture: however the run ends — every trace
// done, a trace failing on a dead socket, the context cancelled under eight
// workers mid-round — Close stops the mux first and installs the capture
// second, so the file holds every datagram that reached the wire.
func TestCloseInstallsCompleteCapture(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.pcap")
		l, conn, sc := simLive(t, "-capture", path)
		m, err := l.OpenMux(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true})
		for _, d := range sc.Dests {
			if _, err := tr.Trace(d); err != nil {
				t.Fatal(err)
			}
		}
		if recs, err := readPcap(path); err != nil || len(recs) != 0 {
			t.Errorf("before Close the path holds %d records (%v), want the empty capture", len(recs), err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		checkCapture(t, path, conn, sc.Net.Source())

		// Offline, the capture names its own destinations unless the flags
		// pin them.
		offline, _ := parseLive(t, "live-dests", "-replay", path)
		if _, dests, err := offline.OpenReplay(); err != nil || fmt.Sprint(dests) != fmt.Sprint(sc.Dests) {
			t.Errorf("-replay alone probes %v (%v), want the captured %v", dests, err, sc.Dests)
		}
		pinned, _ := parseLive(t, "live-dests", "-replay", path, "-live-dests", sc.Dests[3].String())
		if _, dests, err := pinned.OpenReplay(); err != nil || len(dests) != 1 || dests[0] != sc.Dests[3] {
			t.Errorf("-replay -live-dests probes %v (%v), want only %v", dests, err, sc.Dests[3])
		}
	})

	t.Run("trace error", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.pcap")
		l, conn, sc := simLive(t, "-capture", path)
		conn.ReadErr = func(call int) error {
			if call >= 3 {
				return errors.New("socket gone")
			}
			return nil
		}
		m, err := l.OpenMux(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := tracer.NewParisUDP(m.Transport(), tracer.Options{})
		var traceErr error
		for _, d := range sc.Dests {
			if _, traceErr = tr.Trace(d); traceErr != nil {
				break
			}
		}
		if traceErr == nil || exitCode(traceErr) != exitFailure {
			t.Fatalf("trace over a dead socket: %v (exit %d), want a runtime failure", traceErr, exitCode(traceErr))
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		checkCapture(t, path, conn, sc.Net.Source())
	})

	t.Run("cancellation", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.pcap")
		l, conn, sc := simLive(t, "-capture", path)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The interrupt arrives from inside the network, forty probes in:
		// no sleep, and the workers are mid-ladder when it lands.
		respond, answered := conn.Respond, 0
		conn.Respond = func(probe []byte) ([]byte, bool) {
			if answered++; answered == 40 {
				cancel()
			}
			return respond(probe)
		}
		m, err := l.OpenMux(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(sc.Dests))
		for w, d := range sc.Dests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true})
				for errs[w] == nil {
					_, errs[w] = tr.Trace(d)
				}
			}()
		}
		<-ctx.Done()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// Each worker was stopped by the cancellation or by Close, whichever
		// it met first.
		for w, err := range errs {
			if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "mux closed") {
				t.Errorf("worker %d stopped with %v", w, err)
			}
		}
		checkCapture(t, path, conn, sc.Net.Source())
	})
}

// TestOpenMuxFailures: what keeps the mux from opening decides the exit
// code — a missing privilege is the user's to fix (2), an unwritable capture
// path is a runtime failure (1) — and neither leaves a mux behind.
func TestOpenMuxFailures(t *testing.T) {
	l, _, _ := simLive(t)
	l.dial = func() (netip.Addr, live.PacketConn, error) {
		return netip.Addr{}, nil, errors.New("socket: operation not permitted")
	}
	if _, err := l.OpenMux(context.Background(), nil); exitCode(err) != exitUsage || !strings.Contains(err.Error(), "operation not permitted") {
		t.Errorf("no raw sockets: %v (exit %d), want a usage error saying why", err, exitCode(err))
	}
	l, _, _ = simLive(t)
	l.dial = func() (netip.Addr, live.PacketConn, error) { return netip.Addr{}, nil, nil }
	if _, err := l.OpenMux(context.Background(), nil); exitCode(err) != exitUsage || !strings.Contains(err.Error(), "live probing unavailable") {
		t.Errorf("no IPv4 source: %v (exit %d), want a usage error", err, exitCode(err))
	}
	l, _, _ = simLive(t, "-capture", filepath.Join(t.TempDir(), "no", "such", "dir", "run.pcap"))
	if _, err := l.OpenMux(context.Background(), nil); exitCode(err) != exitFailure {
		t.Errorf("unwritable capture path: %v (exit %d), want a runtime failure", err, exitCode(err))
	}
}

// TestOnPressureReachesTheCaller: the binary's callback (measured halves its
// pacer there) hears the degradation level the mux reports.
func TestOnPressureReachesTheCaller(t *testing.T) {
	l, conn, sc := simLive(t)
	var heard []uint
	m, err := l.OpenMux(context.Background(), func(h tracer.MuxHealth) { heard = append(heard, uint(h.DegradeShift)) })
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	conn.SetKernelDrops(7)
	tr := tracer.NewParisUDP(m.Transport(), tracer.Options{})
	if _, err := tr.Trace(sc.Dests[0]); err != nil {
		t.Fatal(err)
	}
	if len(heard) == 0 || heard[0] == 0 {
		t.Errorf("pressure callback heard %v, want a degradation level above zero first", heard)
	}
}
