package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/measure"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
)

// simNetEnv makes the re-executed binary's -live mode probe a generated
// topology through live.SimConn instead of the host's raw sockets: "ok"
// answers every probe, "dead" fails the socket on its third read.
const simNetEnv = "ANOMALY_STUDY_TEST_SIM_NET"

// simNet is the schedule-free topology behind simNetEnv: responses are pure
// functions of the probe bytes, so every round sends the same datagrams.
func simNet() *topo.Scenario {
	gc := topo.DefaultGenConfig()
	gc.Seed, gc.Destinations = 23, 6
	gc.FlipPerProbe, gc.PPerPacket, gc.PPerPacketUnequal = 0, 0, 0
	return topo.Generate(gc)
}

// countingConn says on stderr, when the mux closes it, how many datagrams
// the run put on the wire.
type countingConn struct{ *live.SimConn }

func (c countingConn) Close() error {
	fmt.Fprintf(os.Stderr, "sim net: %d datagrams sent\n", c.SendCount())
	return c.SimConn.Close()
}

func simulateNetwork() {
	mode := os.Getenv(simNetEnv)
	if mode == "" {
		return
	}
	openMux = func(l *cli.Live, ctx context.Context, _ func(tracer.MuxHealth)) (*cli.Mux, error) {
		sc := simNet()
		conn := &live.SimConn{Respond: func(probe []byte) ([]byte, bool) {
			resp, _, ok := sc.Net.Exchange(probe)
			return resp, ok
		}}
		if mode == "dead" {
			conn.ReadErr = func(call int) error {
				if call >= 2 {
					return errors.New("socket gone")
				}
				return nil
			}
		}
		m, err := live.NewMux(live.MuxConfig{
			Source: sc.Net.Source(), Conn: countingConn{conn}, Context: ctx, Retries: l.Retries,
		})
		return &cli.Mux{Mux: m}, err
	}
}

// liveStudy runs the binary in -live mode over the simulated network, one TTL
// at a time so that every round costs the same datagrams (a batched first
// round overshoots paths whose length it does not know yet).
func liveStudy(t *testing.T, mode string, args ...string) (stderr string, exit int) {
	t.Helper()
	var dests []string
	for _, d := range simNet().Dests {
		dests = append(dests, d.String())
	}
	t.Setenv(simNetEnv, mode)
	return study(t, append([]string{"-live", "-live-dests", strings.Join(dests, ","), "-workers", "2", "-retries", "0", "-batch=false"}, args...)...)
}

func datagramsSent(t *testing.T, stderr string) int {
	t.Helper()
	m := regexp.MustCompile(`sim net: (\d+) datagrams sent`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("stderr %q does not report the datagram count", stderr)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestLiveResumeContinuesFromCheckpoint: a live study halted after two of
// its four rounds and rerun with -resume probes the two rounds that are left
// — as many datagrams again as the first half, not twice as many — moves the
// checkpoint's cursor from 2 to 4 without passing through zero, and writes
// the -stats-json it was asked for.
func TestLiveResumeContinuesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck, out := filepath.Join(dir, "live.ck"), filepath.Join(dir, "stats.json")
	cursor := func() int {
		t.Helper()
		c, err := measure.LoadCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		return c.NextRound
	}

	stderr, exit := liveStudy(t, "ok", "-rounds", "4", "-checkpoint", ck, "-halt-after", "2")
	if exit != 0 {
		t.Fatalf("halted run: exit %d: %s", exit, stderr)
	}
	firstHalf := datagramsSent(t, stderr)
	if got := cursor(); got != 2 {
		t.Fatalf("halted run left the cursor at round %d, want 2", got)
	}

	stderr, exit = liveStudy(t, "ok", "-rounds", "4", "-checkpoint", ck, "-resume", "-stats-json", out)
	if exit != 0 {
		t.Fatalf("resumed run: exit %d: %s", exit, stderr)
	}
	if got := datagramsSent(t, stderr); got != firstHalf {
		t.Errorf("resumed run sent %d datagrams, the first two rounds took %d: it did not start at round 2", got, firstHalf)
	}
	if got := cursor(); got != 4 {
		t.Errorf("resumed run left the cursor at round %d, want 4", got)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("-stats-json with -live: %v", err)
	}
	var stats measure.Stats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(simNet().Dests); stats.Rounds != 4 || stats.Routes != want || stats.Robust.Mux == nil {
		t.Errorf("statistics cover %d rounds, %d routes (mux health %v), want 4 rounds, %d routes and the mux's health",
			stats.Rounds, stats.Routes, stats.Robust.Mux, want)
	}

	// A checkpoint of another campaign is refused, not overwritten.
	before, _ := os.ReadFile(ck)
	stderr, exit = liveStudy(t, "ok", "-rounds", "4", "-seed", "99", "-checkpoint", ck, "-resume")
	if exit != 1 || !strings.Contains(stderr, "digest does not match the configuration") {
		t.Errorf("resume under another seed: exit %d, stderr %q, want exit 1 and a digest mismatch", exit, stderr)
	}
	if after, _ := os.ReadFile(ck); string(after) != string(before) {
		t.Error("the refused checkpoint was overwritten")
	}
}

// TestLiveExitCodes: once the mux is open a failure is a runtime failure
// (1); what the user must fix on the command line is still usage (2).
func TestLiveExitCodes(t *testing.T) {
	if stderr, exit := liveStudy(t, "dead", "-rounds", "2", "-fail-fast"); exit != 1 || !strings.Contains(stderr, "socket gone") {
		t.Errorf("trace error after the mux opened: exit %d, stderr %q, want exit 1 naming the socket error", exit, stderr)
	}
	if stderr, exit := study(t, "-live"); exit != 2 || !strings.Contains(stderr, "-live requires -live-dests") {
		t.Errorf("-live without destinations: exit %d, stderr %q, want exit 2", exit, stderr)
	}
	if stderr, exit := study(t, "-live", "-live-dests", "192.0.2.1,nonsense"); exit != 2 || !strings.Contains(stderr, "not an IPv4 address") {
		t.Errorf("bad -live-dests: exit %d, stderr %q, want exit 2", exit, stderr)
	}
}

// TestReplayRefusesOnlineFlags: a replay serves the capture from its start
// and records nothing, so the flags that need a cursor or a network are
// refused by name instead of being ignored.
func TestReplayRefusesOnlineFlags(t *testing.T) {
	capture := filepath.Join("..", "..", "internal", "tracer", "replay", "testdata", "corpus", "clean-paris-udp.pcap")
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-checkpoint", []string{"-checkpoint", filepath.Join(t.TempDir(), "f.ck")}},
		{"-resume", []string{"-resume"}},
		{"-capture", []string{"-capture", filepath.Join(t.TempDir(), "again.pcap")}},
		{"-live", []string{"-live"}},
	} {
		stderr, exit := study(t, append([]string{"-replay", capture}, c.args...)...)
		if exit != 2 || !strings.Contains(stderr, "-replay is an offline mode and excludes "+c.flag) {
			t.Errorf("-replay with %s: exit %d, stderr %q, want exit 2 naming the flag", c.flag, exit, stderr)
		}
	}
}
