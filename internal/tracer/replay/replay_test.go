package replay_test

import (
	"net/netip"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// The replay acceptance suite captures hermetic campaigns through the real
// mux (SimConn replaying a netsim topology on the virtual clock), then
// re-runs the identically-configured campaign over the capture file. The
// statistics must agree byte for byte: the live taps stamp captures with
// the very clock readings their RTTs use, so a replayed RTT is the
// original RTT, not an approximation of it.

// replayTopo is simtest's default topology, whose responses are pure
// functions of probe bytes, so replaying in any interleaving yields the
// same routes.
func replayTopo(t testing.TB, dests int, seed int64) *topo.Scenario {
	t.Helper()
	gc := simtest.Default(dests)
	gc.Seed = seed
	return topo.Generate(gc)
}

// capture drives traffic through one shared mux, over a SimConn replaying
// sc under sched, with a capture tap, and returns the capture's path. drive
// gets a new handle on the mux from each call of handle.
func capture(t testing.TB, sc *topo.Scenario, sched live.SimSchedule, retries int, drive func(handle func() tracer.Transport)) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.pcap")
	c, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := live.NewMux(live.MuxConfig{
		Source: sc.Net.Source(), Conn: &live.SimConn{Respond: simtest.Responder(sc.Net), Sched: sched},
		Retries: retries, Capture: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(func() tracer.Transport { return m.Transport() })
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCampaign runs the suite's streamed, batched campaign over sc's
// destinations, each worker on a transport from tp.
func runCampaign(t testing.TB, sc *topo.Scenario, workers, rounds int, tp func() tracer.Transport) *measure.Stats {
	t.Helper()
	camp, err := measure.NewCampaign(nil, measure.Config{
		Dests: sc.Dests, Rounds: rounds, Workers: workers, PortSeed: 42,
		Batch: true, Stream: true,
		TransportFor: func(int) tracer.Transport { return tp() },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// captureCampaign runs the campaign through one shared mux with a capture
// tap, and returns its stats and the capture path.
func captureCampaign(t testing.TB, sc *topo.Scenario, sched live.SimSchedule, retries, workers, rounds int) (stats *measure.Stats, path string) {
	path = capture(t, sc, sched, retries, func(handle func() tracer.Transport) {
		stats = runCampaign(t, sc, workers, rounds, handle)
	})
	return stats, path
}

// replayCampaign re-runs the same campaign over the capture.
func replayCampaign(t testing.TB, rt *replay.Transport, sc *topo.Scenario, workers, rounds int) *measure.Stats {
	return runCampaign(t, sc, workers, rounds, func() tracer.Transport { return rt })
}

// open is replay.Open for a test: a capture that does not load fails it.
func open(t testing.TB, path string, cfg replay.Config) *replay.Transport {
	t.Helper()
	rt, err := replay.Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestReplayRetransmitFolding drives the folding rule: under a
// drop-first-attempt schedule with Retries=1 every probe appears twice in
// the capture (the retransmit answered, the first send not), and replay
// must fold each pair into one exchange whose RTT is charged against the
// retransmission — Karn's rule sees the same samples offline.
func TestReplayRetransmitFolding(t *testing.T) {
	const seed, dests, workers, rounds = 29, 8, 4, 2
	sc := replayTopo(t, dests, seed)
	seenProbe := make(map[string]bool)
	var mu sync.Mutex
	sched := live.SimSchedule{Drop: func(_ int, probe []byte) bool {
		mu.Lock()
		defer mu.Unlock()
		if seenProbe[string(probe)] {
			return false
		}
		seenProbe[string(probe)] = true
		return true
	}}
	want, path := captureCampaign(t, sc, sched, 1, workers, rounds)

	rt := open(t, path, replay.Config{Retries: 1})
	if got := rt.Source(); got != sc.Net.Source() {
		t.Fatalf("inferred source %v, want %v", got, sc.Net.Source())
	}
	if got := rt.Destinations(); !slices.Equal(slices.SortedFunc(slices.Values(got), netip.Addr.Compare),
		slices.SortedFunc(slices.Values(sc.Dests), netip.Addr.Compare)) {
		t.Fatalf("capture holds destinations %v, want %v", got, sc.Dests)
	}
	got := replayCampaign(t, rt, sc, workers, rounds)
	if d := simtest.Diff(want, got); d != "" {
		t.Fatalf("stats diverge under retransmit folding at %s", d)
	}
	if l := rt.Leftover(); l != 0 {
		t.Errorf("%d captured exchanges never served", l)
	}
}

// TestReplayTCPReorderFIFO pins satellite fidelity for tcptraceroute's
// constant-sequence probes: terminal RSTs carry no per-probe identifier,
// so under reordered arrival the mux credits them to the oldest in-flight
// probe (the FIFO rule). Replay must reproduce that attribution exactly —
// hop for hop, RTT for RTT — because its bind FIFO is the mux's
// registration order.
func TestReplayTCPReorderFIFO(t *testing.T) {
	const seed, dests = 31, 4
	sc := replayTopo(t, dests, seed)
	want := make([]*tracer.Route, len(sc.Dests))
	path := capture(t, sc, live.SimSchedule{Reorder: true}, 0, func(handle func() tracer.Transport) {
		for i, d := range sc.Dests {
			r, err := tracer.NewTCPTraceroute(handle(), tracer.Options{Batch: true}).Trace(d)
			if err != nil {
				t.Fatalf("capture trace %v: %v", d, err)
			}
			want[i] = r
		}
	})
	rt := open(t, path, replay.Config{})
	for i, d := range sc.Dests {
		got, err := tracer.NewTCPTraceroute(rt, tracer.Options{Batch: true}).Trace(d)
		if err != nil {
			t.Fatalf("replay trace %v: %v", d, err)
		}
		// Full-fidelity comparison: not just the path observables
		// Route.Equal checks, but RTTs and response IP IDs too.
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("dest %v: replayed route differs from captured mux route\ngot:  %+v\nwant: %+v",
				d, got, want[i])
		}
	}
	if l := rt.Leftover(); l != 0 {
		t.Errorf("%d captured exchanges never served", l)
	}
}

// TestReplayDivergenceIsLoud checks the strict-matching contract: probes
// the capture never held, flows already exhausted, and byte-level probe
// mismatches all fail with a fatal error instead of silently starring.
func TestReplayDivergenceIsLoud(t *testing.T) {
	const seed, dests = 37, 4
	sc := replayTopo(t, dests, seed)
	_, path := captureCampaign(t, sc, live.SimSchedule{}, 0, 2, 1)

	// A probe from a differently-seeded campaign: its flow key was never
	// captured.
	rt := open(t, path, replay.Config{})
	other := replayTopo(t, dests, seed+1)
	foreign := buildProbe(t, other)
	if exchangeOne(rt, foreign).Err == nil {
		t.Fatal("foreign probe served from an unrelated capture")
	}

	// Same flow key, different bytes: mutate a captured probe's TTL (the
	// flow key covers addresses, protocol, IP ID, and the first transport
	// words — not the TTL), and the byte-strict check must reject it.
	_, recs := readCapture(t, path)
	mutated := append([]byte(nil), recs[0].Data...)
	mutated[8] = 77 // TTL
	rt2 := open(t, path, replay.Config{})
	if exchangeOne(rt2, mutated).Err == nil {
		t.Fatal("byte-mutated probe served despite the mismatch")
	}

	// Exhaustion: replay the campaign fully, then ask for one more.
	rt3 := open(t, path, replay.Config{})
	replayCampaign(t, rt3, sc, 2, 1)
	if exchangeOne(rt3, append([]byte(nil), recs[0].Data...)).Err == nil {
		t.Fatal("exhausted flow served an extra exchange")
	}
	// A result slot recycled from an answered probe surfaces the same error
	// and keeps none of the old answer.
	out := []tracer.ProbeResult{{Resp: []byte{1, 2, 3}, RTT: time.Second, OK: true}}
	rt3.ExchangeBatch([][]byte{append([]byte(nil), recs[0].Data...)}, out)
	if out[0].Err == nil || out[0].OK || len(out[0].Resp) != 0 {
		t.Fatal("ExchangeBatch hid the divergence error")
	}
}

// buildProbe asks a ParisUDP engine over the plain simulator for its first
// probe bytes by capturing one trace's traffic — cheap way to get a
// well-formed probe for a foreign topology.
func buildProbe(t *testing.T, sc *topo.Scenario) []byte {
	t.Helper()
	path := capture(t, sc, live.SimSchedule{}, 0, func(handle func() tracer.Transport) {
		if _, err := tracer.NewParisUDP(handle(), tracer.Options{Batch: true}).Trace(sc.Dests[0]); err != nil {
			t.Fatal(err)
		}
	})
	_, recs := readCapture(t, path)
	if len(recs) == 0 {
		t.Fatal("the probe capture is empty")
	}
	return append([]byte(nil), recs[0].Data...)
}

// TestReplayTimeoutGuard pins the late-response rule: a response stamped
// beyond Config.Timeout after its probe's last transmission is junk — the
// live wheel had already expired that probe.
func TestReplayTimeoutGuard(t *testing.T) {
	const seed = 41
	sc := replayTopo(t, 1, seed)
	_, path := captureCampaign(t, sc, live.SimSchedule{}, 0, 1, 1)
	raw, recs := readCapture(t, path)
	// Push every inbound record an hour into the future; probes keep their
	// stamps. Every response is now hopelessly late.
	src := load(t, raw, replay.Config{}).Source()
	late := make([]pcap.Record, len(recs))
	for i, r := range recs {
		late[i] = r
		if !probeFrom(r.Data, src) {
			late[i].TS = r.TS + int64(time.Hour)
		}
	}
	lateRaw := encode(late, dialects[0])
	rt := load(t, lateRaw, replay.Config{})
	if rt.Junk() == 0 {
		t.Fatal("hour-late responses were bound instead of junked")
	}
	// And a generous timeout accepts them again.
	rt2 := load(t, lateRaw, replay.Config{Timeout: 2 * time.Hour})
	if rt2.Junk() != 0 {
		t.Fatalf("junk=%d with a 2h timeout", rt2.Junk())
	}
}

// probeFrom reports whether pkt is an IPv4 packet sourced at src — enough
// to split the sample capture's directions in the timeout test.
func probeFrom(pkt []byte, src interface{ As4() [4]byte }) bool {
	if len(pkt) < 20 {
		return false
	}
	a := src.As4()
	return pkt[12] == a[0] && pkt[13] == a[1] && pkt[14] == a[2] && pkt[15] == a[3]
}
