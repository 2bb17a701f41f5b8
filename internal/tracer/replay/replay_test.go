package replay_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pcap"
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

// replayTopo mirrors the live package's muxTopo: per-probe randomness is
// zeroed so responses are pure functions of probe bytes and replaying in
// any interleaving yields the same routes.
func replayTopo(t testing.TB, dests int, seed int64) *topo.Scenario {
	t.Helper()
	gc := topo.DefaultGenConfig()
	gc.Seed = seed
	gc.Destinations = dests
	gc.FlipPerProbe = 0
	gc.PPerPacket = 0
	gc.PPerPacketUnequal = 0
	return topo.Generate(gc)
}

func responder(net *netsim.Network) func([]byte) ([]byte, bool) {
	return func(probe []byte) ([]byte, bool) {
		resp, _, ok := net.Exchange(probe)
		return resp, ok
	}
}

// statsJSON renders Stats in the same canonical form the anomaly-study
// binary persists, so "byte-identical" means what a user would diff.
func statsJSON(t testing.TB, s *measure.Stats) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// captureCampaign runs a streamed multi-worker campaign through one shared
// mux with a capture tap, and returns its stats and the capture path.
func captureCampaign(t testing.TB, sc *topo.Scenario, sched live.SimSchedule, retries, workers, rounds int) (*measure.Stats, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.pcap")
	cap, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := &live.SimConn{Respond: responder(sc.Net), Sched: sched}
	m, err := live.NewMux(live.MuxConfig{
		Source: sc.Net.Source(), Conn: fake, Retries: retries, Capture: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := measure.NewCampaign(nil, measure.Config{
		Dests: sc.Dests, Rounds: rounds, Workers: workers, PortSeed: 42,
		Batch: true, Stream: true,
		TransportFor: func(int) tracer.Transport { return m.Transport() },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}
	return res.Stats, path
}

// replayCampaign re-runs the same campaign shape over the capture.
func replayCampaign(t testing.TB, rt *replay.Transport, sc *topo.Scenario, workers, rounds int) *measure.Stats {
	t.Helper()
	camp, err := measure.NewCampaign(nil, measure.Config{
		Dests: sc.Dests, Rounds: rounds, Workers: workers, PortSeed: 42,
		Batch: true, Stream: true,
		TransportFor: func(int) tracer.Transport { return rt },
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

// TestReplayByteIdenticalStats is the tentpole acceptance test: an
// 8-worker campaign captured through the shared mux, replayed offline with
// the same configuration, must reproduce the streamed statistics byte for
// byte — RTT sums included.
func TestReplayByteIdenticalStats(t *testing.T) {
	const seed, dests, workers, rounds = 23, 16, 8, 2
	sc := replayTopo(t, dests, seed)
	want, path := captureCampaign(t, sc, live.SimSchedule{}, 1, workers, rounds)

	rt, err := replay.Open(path, replay.Config{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Source(); got != sc.Net.Source() {
		t.Fatalf("inferred source %v, want %v", got, sc.Net.Source())
	}
	rdests := rt.Destinations()
	seen := make(map[string]bool, len(rdests))
	for _, d := range rdests {
		seen[d.String()] = true
	}
	for _, d := range sc.Dests {
		if !seen[d.String()] {
			t.Fatalf("capture lost destination %v", d)
		}
	}

	got := replayCampaign(t, rt, sc, workers, rounds)
	if !bytes.Equal(statsJSON(t, got), statsJSON(t, want)) {
		t.Fatalf("replayed stats diverge from the captured campaign\ngot:  %s\nwant: %s",
			statsJSON(t, got), statsJSON(t, want))
	}
	if l := rt.Leftover(); l != 0 {
		t.Errorf("%d captured exchanges never served — replay under-probed", l)
	}
	if j := rt.Junk(); j != 0 {
		t.Errorf("%d junk records in a clean capture", j)
	}
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

	rt, err := replay.Open(path, replay.Config{Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := replayCampaign(t, rt, sc, workers, rounds)
	if !bytes.Equal(statsJSON(t, got), statsJSON(t, want)) {
		t.Fatalf("stats diverge under retransmit folding\ngot:  %s\nwant: %s",
			statsJSON(t, got), statsJSON(t, want))
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
	path := filepath.Join(t.TempDir(), "tcp.pcap")
	cap, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := &live.SimConn{Respond: responder(sc.Net), Sched: live.SimSchedule{Reorder: true}}
	m, err := live.NewMux(live.MuxConfig{Source: sc.Net.Source(), Conn: fake, Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*tracer.Route, len(sc.Dests))
	for i, d := range sc.Dests {
		r, err := tracer.NewTCPTraceroute(m.Transport(), tracer.Options{Batch: true}).Trace(d)
		if err != nil {
			t.Fatalf("capture trace %v: %v", d, err)
		}
		want[i] = r
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cap.Close(); err != nil {
		t.Fatal(err)
	}

	rt, err := replay.Open(path, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
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
	rt, err := replay.Open(path, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	other := replayTopo(t, dests, seed+1)
	foreign := buildProbe(t, other)
	if _, _, _, err := rt.ExchangeErr(foreign); err == nil {
		t.Fatal("foreign probe served from an unrelated capture")
	}

	// Same flow key, different bytes: mutate a captured probe's TTL (the
	// flow key covers addresses, protocol, IP ID, and the first transport
	// words — not the TTL), and the byte-strict check must reject it.
	recs, err := pcap.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), recs[0].Data...)
	mutated[8] = 77 // TTL
	rt2, err := replay.Open(path, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := rt2.ExchangeErr(mutated); err == nil {
		t.Fatal("byte-mutated probe served despite the mismatch")
	}

	// Exhaustion: replay the campaign fully, then ask for one more.
	rt3, err := replay.Open(path, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	replayCampaign(t, rt3, sc, 2, 1)
	if _, _, _, err := rt3.ExchangeErr(append([]byte(nil), recs[0].Data...)); err == nil {
		t.Fatal("exhausted flow served an extra exchange")
	}
	// The batch path surfaces the same error per probe.
	out := make([]tracer.ProbeResult, 1)
	rt3.ExchangeBatch([][]byte{append([]byte(nil), recs[0].Data...)}, out)
	if out[0].Err == nil || out[0].OK {
		t.Fatal("ExchangeBatch hid the divergence error")
	}
}

// buildProbe asks a ParisUDP engine over the plain simulator for its first
// probe bytes by capturing one trace's traffic — cheap way to get a
// well-formed probe for a foreign topology.
func buildProbe(t *testing.T, sc *topo.Scenario) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "one.pcap")
	cap, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := &live.SimConn{Respond: responder(sc.Net)}
	m, err := live.NewMux(live.MuxConfig{Source: sc.Net.Source(), Conn: fake, Capture: cap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0]); err != nil {
		t.Fatal(err)
	}
	m.Close()
	cap.Close()
	recs, err := pcap.ReadFile(path)
	if err != nil || len(recs) == 0 {
		t.Fatalf("probe capture: %d recs, %v", len(recs), err)
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
	recs, err := pcap.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Push every inbound record an hour into the future; probes keep their
	// stamps. Every response is now hopelessly late.
	rt0, err := replay.FromRecords(recs, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src := rt0.Source()
	late := make([]pcap.Record, len(recs))
	for i, r := range recs {
		late[i] = r
		if !probeFrom(r.Data, src) {
			late[i].TS = r.TS.Add(time.Hour)
		}
	}
	rt, err := replay.FromRecords(late, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Junk() == 0 {
		t.Fatal("hour-late responses were bound instead of junked")
	}
	// And a generous timeout accepts them again.
	rt2, err := replay.FromRecords(late, replay.Config{Timeout: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
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
