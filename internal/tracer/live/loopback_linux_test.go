//go:build linux && (amd64 || arm64)

package live

import (
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/measure"
	"repro/internal/pcap"
	"repro/internal/tracer"
	"repro/internal/tracer/replay"
)

// available reports whether this process can open the raw sockets the live
// transport needs (nil means yes). It opens and immediately closes them.
func available() error {
	c, err := dialRaw()
	if err != nil {
		return err
	}
	return c.Close()
}

// TestLiveLoopback exercises the real raw-socket path end to end where the
// environment permits it (root or CAP_NET_RAW; CI runs it in a privileged
// job, everywhere else it skips cleanly), as a single trace runs it — one
// handle on a mux of its own: a batched Paris UDP ladder toward 127.0.0.1
// must reach the local responder — the kernel itself — in one
// hop via an ICMP Port Unreachable quoting our probe, driven through
// sendmmsg/recvmmsg.
func TestLiveLoopback(t *testing.T) {
	if err := available(); err != nil {
		t.Skipf("raw sockets unavailable: %v", err)
	}
	lo := netip.AddrFrom4([4]byte{127, 0, 0, 1})
	m, err := NewMux(MuxConfig{Source: lo, Timeout: 2 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tp := m.Transport()

	t.Run("paris-udp", func(t *testing.T) {
		rt, err := tracer.NewParisUDP(tp, tracer.Options{Batch: true, MaxTTL: 5}).Trace(lo)
		if err != nil {
			t.Fatal(err)
		}
		if !rt.Reached() {
			t.Fatalf("loopback not reached: halt=%v hops=%v", rt.Halt, rt.Addresses())
		}
		if len(rt.Hops) != 1 || rt.Hops[0].Addr != lo {
			t.Fatalf("route = %v, want a single hop answering as %v", rt.Addresses(), lo)
		}
		if rt.Hops[0].Kind != tracer.KindPortUnreachable {
			t.Errorf("terminal kind = %v, want port-unreachable", rt.Hops[0].Kind)
		}
	})

	t.Run("paris-icmp", func(t *testing.T) {
		rt, err := tracer.NewParisICMP(tp, tracer.Options{Batch: true, MaxTTL: 5}).Trace(lo)
		if err != nil {
			t.Fatal(err)
		}
		if !rt.Reached() {
			// Some hosts suppress echo responses (icmp_echo_ignore_all);
			// the UDP subtest above is the hard assertion.
			t.Skipf("no echo reply from loopback: halt=%v", rt.Halt)
		}
		if len(rt.Hops) != 1 || rt.Hops[0].Kind != tracer.KindEchoReply {
			t.Fatalf("route = %v kind=%v, want one echo-reply hop", rt.Addresses(), rt.Hops[0].Kind)
		}
	})
}

// TestLiveMuxLoopback runs a real multi-worker measure.Campaign over one
// shared Mux against the loopback range: 127.0.0.1..8 are all the local
// stack on Linux, so eight workers' interleaved Paris UDP ladders — one raw
// ICMP+TCP socket pair for the whole campaign — must each resolve to a
// single port-unreachable hop answering as the probed address. This is the
// privileged end-to-end check of the attribution path the hermetic SimConn
// tests exercise in miniature.
//
// The whole campaign runs with a pcap capture tap armed, and the capture is
// then replayed in-job: the offline run must reproduce every live route
// exactly (addresses, kinds, and RTTs — replay RTTs are differences of the
// same clock readings the mux charged) and consume every captured exchange.
// This closes the loop the hermetic tests can only approximate: real
// kernel-generated responses through a real raw socket pair, recorded,
// re-served, and byte-compared.
func TestLiveMuxLoopback(t *testing.T) {
	if err := available(); err != nil {
		t.Skipf("raw sockets unavailable: %v", err)
	}
	const workers, rounds = 8, 2
	var dests []netip.Addr
	for i := byte(1); i <= 8; i++ {
		dests = append(dests, netip.AddrFrom4([4]byte{127, 0, 0, i}))
	}
	capPath := filepath.Join(t.TempDir(), "loopback.pcap")
	capSink, err := pcap.CreateCapture(capPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMux(MuxConfig{
		Source:  netip.AddrFrom4([4]byte{127, 0, 0, 1}),
		Timeout: 2 * time.Second, Retries: 1,
		Capture: capSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// One config for both runs: the replayed campaign must be configured
	// identically to the captured one or replay fails loudly by design.
	campaignConfig := func(tpFor func(int) tracer.Transport) measure.Config {
		return measure.Config{
			Dests: dests, Rounds: rounds, Workers: workers,
			MinTTL: 1, PortSeed: 42, Batch: true,
			TransportFor: tpFor,
		}
	}
	camp, err := measure.NewCampaign(nil, campaignConfig(func(int) tracer.Transport { return m.Transport() }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for r := range res.Rounds {
		for _, p := range res.Rounds[r] {
			if p.Paris == nil || !p.Paris.Reached() {
				t.Fatalf("round %d dest %v: loopback not reached: %+v", r, p.Dest, p.Outcome)
			}
			if len(p.Paris.Hops) != 1 || p.Paris.Hops[0].Addr != p.Dest {
				t.Errorf("round %d dest %v: route %v, want one hop answering as the destination",
					r, p.Dest, p.Paris.Addresses())
			}
		}
	}
	h := m.Health()
	if h.InFlight != 0 {
		t.Errorf("campaign done but %d probes still in flight", h.InFlight)
	}
	if h.Destinations == 0 {
		t.Errorf("no destination collected an RTT sample: %+v", h)
	}

	// Close the mux (stops feeding the tap) and install the capture, then
	// re-run the identical campaign from the file alone.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := capSink.Close(); err != nil {
		t.Fatal(err)
	}
	rt, err := replay.Open(capPath, replay.Config{Retries: 1})
	if err != nil {
		t.Fatalf("replaying the loopback capture: %v", err)
	}
	rcamp, err := measure.NewCampaign(nil, campaignConfig(func(int) tracer.Transport { return rt }))
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rcamp.Run()
	if err != nil {
		t.Fatalf("replayed campaign: %v", err)
	}
	if len(rres.Rounds) != len(res.Rounds) {
		t.Fatalf("replay produced %d rounds, live run %d", len(rres.Rounds), len(res.Rounds))
	}
	for r := range res.Rounds {
		if len(rres.Rounds[r]) != len(res.Rounds[r]) {
			t.Fatalf("round %d: replay holds %d pairs, live run %d", r, len(rres.Rounds[r]), len(res.Rounds[r]))
		}
		for i, lp := range res.Rounds[r] {
			rp := rres.Rounds[r][i]
			if rp.Dest != lp.Dest {
				t.Fatalf("round %d pair %d: replay dest %v, live %v", r, i, rp.Dest, lp.Dest)
			}
			// Full-fidelity comparison: addresses, kinds, TTL observables,
			// and RTTs must all survive the trip through the pcap.
			if !reflect.DeepEqual(rp.Classic, lp.Classic) {
				t.Errorf("round %d dest %v: replayed classic route differs\nlive:   %+v\nreplay: %+v",
					r, lp.Dest, lp.Classic, rp.Classic)
			}
			if !reflect.DeepEqual(rp.Paris, lp.Paris) {
				t.Errorf("round %d dest %v: replayed Paris route differs\nlive:   %+v\nreplay: %+v",
					r, lp.Dest, lp.Paris, rp.Paris)
			}
		}
	}
	if l := rt.Leftover(); l != 0 {
		t.Errorf("%d captured exchange(s) never served — the replayed campaign under-consumed the capture", l)
	}
}

// TestLiveMuxLoopbackBatchAllocs pins the real socket layer's batch calls
// at zero allocations once warm: the sendmmsg and recvmmsg header arrays
// live on the conn (PacketConn's concurrency contract is what makes that
// sound), so a WriteBatch of a probe window and the ReadBatch sweeps that
// collect the kernel's port-unreachable answers allocate nothing. It shares
// the privileged job with its neighbours (its name matches their -run
// pattern) and skips without raw sockets like them.
func TestLiveMuxLoopbackBatchAllocs(t *testing.T) {
	if err := available(); err != nil {
		t.Skipf("raw sockets unavailable: %v", err)
	}
	if costs.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	lo := netip.AddrFrom4([4]byte{127, 0, 0, 1})
	// Record a real window of Paris UDP probes toward loopback.
	rec := &probeRecorder{src: lo}
	tracer.NewParisUDP(rec, tracer.Options{Batch: true, MaxTTL: 8}).Trace(lo)
	if len(rec.window) != 8 {
		t.Fatalf("recorded %d probes, want a window of 8", len(rec.window))
	}
	conn, err := dialRaw()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := make([]Datagram, len(rec.window))
	for i, p := range rec.window {
		send[i] = Datagram{Buf: p, Dst: lo.As4()}
	}
	recv := make([]Datagram, 64)
	for i := range recv {
		recv[i].Buf = make([]byte, 1500)
	}
	answered := 0
	exchange := func() {
		if n, err := conn.WriteBatch(send); err != nil || n != len(send) {
			t.Fatalf("WriteBatch: %d, %v", n, err)
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		for got := 0; got < len(send); {
			n, err := conn.ReadBatch(recv)
			if err != nil {
				break // a timeout: the kernel rate-limited an answer away
			}
			got += n
			answered += n
		}
	}
	exchange() // warm: the conn's send and receive scratch
	if allocs := testing.AllocsPerRun(20, exchange); allocs != 0 {
		t.Errorf("a warmed WriteBatch + ReadBatch exchange allocates %.1f times, want 0", allocs)
	}
	if answered == 0 {
		t.Error("loopback answered nothing: the read path was never exercised")
	}
}

// probeRecorder is a silent batch transport that keeps the first window of
// probes submitted through it.
type probeRecorder struct {
	src    netip.Addr
	window [][]byte
}

func (r *probeRecorder) Source() netip.Addr { return r.src }
func (r *probeRecorder) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for i := range out[:len(probes)] {
		out[i] = tracer.ProbeResult{}
	}
	if r.window == nil {
		for _, p := range probes {
			r.window = append(r.window, append([]byte(nil), p...))
		}
	}
}
