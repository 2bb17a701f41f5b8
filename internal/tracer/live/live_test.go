package live

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// The differential harness: the same probing engine is run once against the
// simulator transport (the baseline) and once against a one-handle mux —
// what a single live trace rides — over a SimConn whose responder replays a
// second, identically-built netsim.Network, so every byte the live path
// receives is a genuine simulator response, and the two routes must agree on
// every path observable (tracer.Route.Equal: everything but RTTs and IP IDs,
// which differ per exchange by construction). The schedules then layer
// reorder, duplication, loss and delay over the replay without being allowed
// to change the measured route.

var scenarios = []struct {
	name  string
	build func(seed int64) (*netsim.Network, netip.Addr)
}{
	{"fig1", func(s int64) (*netsim.Network, netip.Addr) {
		f := topo.BuildFigure1(s, netsim.PerFlow)
		return f.Net, f.Dest.Addr
	}},
	{"fig3", func(s int64) (*netsim.Network, netip.Addr) {
		f := topo.BuildFigure3(s)
		return f.Net, f.Dest.Addr
	}},
	{"fig4-zero-ttl", func(s int64) (*netsim.Network, netip.Addr) {
		f := topo.BuildFigure4(s)
		return f.Net, f.Dest.Addr
	}},
	{"fig5-nat", func(s int64) (*netsim.Network, netip.Addr) {
		f := topo.BuildFigure5(s)
		return f.Net, f.Dest.Addr
	}},
	{"fig6", func(s int64) (*netsim.Network, netip.Addr) {
		f := topo.BuildFigure6(s, netsim.PerFlow)
		return f.Net, f.Dest.Addr
	}},
}

var methods = []struct {
	name string
	mk   func(tracer.Transport, tracer.Options) tracer.Tracer
	// indistinctTerminal marks disciplines whose terminal responses carry
	// no per-probe identifier (tcptraceroute's constant sequence number):
	// under arrival-order perturbation the FIFO rule can only credit such
	// a response to the oldest in-flight probe, so exact equality with the
	// simulator's oracle matching is unattainable by any implementation.
	indistinctTerminal bool
}{
	{"paris-udp", tracer.NewParisUDP, false},
	{"paris-icmp", tracer.NewParisICMP, false},
	{"paris-tcp", tracer.NewParisTCP, false},
	{"classic-udp", tracer.NewClassicUDP, false},
	{"classic-icmp", tracer.NewClassicICMP, false},
	{"tcptraceroute", tracer.NewTCPTraceroute, true},
}

// newFakeMux opens a mux over a SimConn backed by a fresh copy of the
// scenario; the tests below trace through one handle of it. A redial
// back-off never sleeps.
func newFakeMux(t *testing.T, build func(int64) (*netsim.Network, netip.Addr), seed int64, sched SimSchedule, retries int) (*Mux, *SimConn, netip.Addr) {
	t.Helper()
	net, dest := build(seed)
	fake := &SimConn{Respond: simtest.Responder(net), Sched: sched}
	return openFakeMux(t, MuxConfig{Source: net.Source(), Conn: fake, Retries: retries}), fake, dest
}

// openFakeMux is NewMux for a hermetic test: no sleeping, closed with the test.
func openFakeMux(t testing.TB, cfg MuxConfig) *Mux {
	t.Helper()
	cfg.Sleep = func(time.Duration) {}
	m, err := NewMux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// closeMux closes m; an error fails the test.
func closeMux(t testing.TB, m *Mux) {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// parisTrace is one Paris UDP trace toward dest over tp; an error fails
// the test.
func parisTrace(t testing.TB, tp tracer.Transport, opts tracer.Options, dest netip.Addr) *tracer.Route {
	t.Helper()
	rt, err := tracer.NewParisUDP(tp, opts).Trace(dest)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// awaitCancel returns once m has seen its Context end. The AfterFunc that
// tells it runs on a goroutine of its own, and a SimConn never blocks, so a
// test that cancels calls this before tracing, or from the conn's read hook
// (the reader holds no lock there): the turn after a cancellation then always
// finds the mux cancelled.
func awaitCancel(m *Mux) {
	for {
		m.mu.Lock()
		done := m.broken != nil
		m.mu.Unlock()
		if done {
			return
		}
		runtime.Gosched()
	}
}

// exchangeOnly splits every window into one-probe exchanges through the
// handle's Exchange, so the mux never holds two probes of a ladder at once.
type exchangeOnly struct{ *MuxTransport }

func (e exchangeOnly) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	for i, p := range probes {
		resp, rtt, ok := e.Exchange(p)
		out[i] = tracer.ProbeResult{Resp: append(out[i].Resp[:0], resp...), RTT: rtt, OK: ok}
	}
}

// TestLiveDifferentialAgainstNetsim is the package's acceptance test:
// ladders driven through the fake socket replaying netsim responses must
// produce routes identical (in every path observable) to the netsim
// transport's, for every scenario, every probing discipline, every ladder
// window (Batch off is the window of one TTL), and under injected reorder,
// duplicate, drop and delay schedules.
func TestLiveDifferentialAgainstNetsim(t *testing.T) {
	const seed = 7
	schedules := []struct {
		name    string
		sched   func() SimSchedule
		retries int
		// perturbsOrder: the schedule changes arrival order across
		// response kinds, which indistinct-terminal disciplines cannot
		// survive exactly (see methods).
		perturbsOrder bool
	}{
		{"clean", func() SimSchedule { return SimSchedule{} }, 0, false},
		{"reorder", func() SimSchedule { return SimSchedule{Reorder: true} }, 0, true},
		{"duplicate", func() SimSchedule {
			return SimSchedule{Dup: func(int, []byte) bool { return true }}
		}, 0, false},
		{"delay-half", func() SimSchedule {
			return SimSchedule{Delay: func(ord int) int {
				if ord%2 == 0 {
					return 2
				}
				return 0
			}}
		}, 0, true},
		{"drop-first-attempt+retry", func() SimSchedule {
			seen := make(map[string]bool)
			return SimSchedule{Drop: func(_ int, probe []byte) bool {
				if seen[string(probe)] {
					return false
				}
				seen[string(probe)] = true
				return true
			}}
		}, 1, false},
	}
	// Batch off is the ladder at a window of one TTL, over the same mux; the
	// path hints vary the first batched window.
	ladders := []tracer.Options{
		{Batch: true}, {Batch: true, PathHint: 1}, {Batch: true, PathHint: 4}, {},
	}
	for _, sc := range scenarios {
		for _, m := range methods {
			net1, dest1 := sc.build(seed)
			want, err := m.mk(netsim.NewTransport(net1), tracer.Options{}).Trace(dest1)
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", sc.name, m.name, err)
			}
			for _, sch := range schedules {
				if sch.perturbsOrder && m.indistinctTerminal {
					continue
				}
				for _, opts := range ladders {
					mux, _, dest := newFakeMux(t, sc.build, seed, sch.sched(), sch.retries)
					got, err := m.mk(mux.Transport(), opts).Trace(dest)
					if err != nil {
						t.Fatalf("%s/%s/%s batch=%v hint=%d: %v", sc.name, m.name, sch.name, opts.Batch, opts.PathHint, err)
					}
					assertMuxDrained(t, mux)
					if !got.Equal(want) {
						t.Errorf("%s/%s/%s batch=%v hint=%d: live route differs from netsim\ngot:  halt=%v hops=%v\nwant: halt=%v hops=%v",
							sc.name, m.name, sch.name, opts.Batch, opts.PathHint,
							got.Halt, got.Addresses(), want.Halt, want.Addresses())
					}
				}
			}
		}
	}
}

// TestLiveSequentialExchange cuts the ladder's windows into single probes —
// one MuxTransport.Exchange per probe — and requires the same route as the
// simulator, for every discipline.
func TestLiveSequentialExchange(t *testing.T) {
	const seed = 11
	for _, m := range methods {
		net1, dest1 := scenarios[1].build(seed) // fig3
		want, err := m.mk(netsim.NewTransport(net1), tracer.Options{}).Trace(dest1)
		if err != nil {
			t.Fatal(err)
		}
		mux, _, dest := newFakeMux(t, scenarios[1].build, seed, SimSchedule{}, 0)
		got, err := m.mk(exchangeOnly{mux.Transport()}, tracer.Options{Batch: true}).Trace(dest)
		if err != nil {
			t.Fatal(err)
		}
		assertMuxDrained(t, mux)
		if !got.Equal(want) {
			t.Errorf("%s: per-probe live route differs\ngot:  %v\nwant: %v", m.name, got.Addresses(), want.Addresses())
		}
	}
}

// TestLiveSilentHopStar suppresses every response from one TTL and expects
// exactly that hop to become a star while the rest of the ladder (and the
// halt) match the unsuppressed baseline.
func TestLiveSilentHopStar(t *testing.T) {
	const seed, silentTTL = 3, 5
	net1, dest1 := scenarios[1].build(seed)
	want := parisTrace(t, netsim.NewTransport(net1), tracer.Options{}, dest1)

	net2, dest := scenarios[1].build(seed)
	inner := simtest.Responder(net2)
	fake := &SimConn{Respond: func(probe []byte) ([]byte, bool) {
		var h packet.IPv4
		if _, err := packet.ParseIPv4Into(probe, &h); err == nil && int(h.TTL) == silentTTL {
			// The router still saw and dropped the probe; only the
			// answer never comes back.
			inner(probe)
			return nil, false
		}
		return inner(probe)
	}}
	mux := openFakeMux(t, MuxConfig{Source: net2.Source(), Conn: fake, Retries: 1})
	got := parisTrace(t, mux.Transport(), tracer.Options{Batch: true}, dest)
	assertMuxDrained(t, mux)
	if len(got.Hops) != len(want.Hops) || got.Halt != want.Halt {
		t.Fatalf("route shape changed: got %d hops halt %v, want %d hops halt %v",
			len(got.Hops), got.Halt, len(want.Hops), want.Halt)
	}
	for i := range got.Hops {
		if i == silentTTL-1 {
			if !got.Hops[i].Star() {
				t.Errorf("hop %d: got %v, want a star", i+1, got.Hops[i].Addr)
			}
			continue
		}
		if got.Hops[i].Addr != want.Hops[i].Addr {
			t.Errorf("hop %d: got %v, want %v", i+1, got.Hops[i].Addr, want.Hops[i].Addr)
		}
	}
}

// TestLiveUnrelatedTrafficIgnored floods the receive path with traffic that
// must never match: our own outbound probes (as a loopback capture would
// deliver them), ICMP errors quoting someone else's flow, and unparseable
// noise. The measured route must be unaffected.
func TestLiveUnrelatedTrafficIgnored(t *testing.T) {
	const seed = 13
	net1, dest1 := scenarios[1].build(seed)
	want := parisTrace(t, netsim.NewTransport(net1), tracer.Options{}, dest1)

	net2, dest := scenarios[1].build(seed)
	inner := simtest.Responder(net2)
	junkQuote := buildJunkError(t)
	fake := &SimConn{}
	fake.Respond = func(probe []byte) ([]byte, bool) {
		resp, ok := inner(probe)
		// Sandwich every genuine response between junk deliveries.
		fake.queue = append(fake.queue,
			append([]byte(nil), probe...), // our own probe, looped back
			junkQuote,
			[]byte{0xde, 0xad, 0xbe, 0xef}, // unparseable noise
		)
		return resp, ok
	}
	mux := openFakeMux(t, MuxConfig{Source: net2.Source(), Conn: fake})
	got := parisTrace(t, mux.Transport(), tracer.Options{Batch: true}, dest)
	assertMuxDrained(t, mux)
	if !got.Equal(want) {
		t.Errorf("junk traffic changed the route\ngot:  %v\nwant: %v", got.Addresses(), want.Addresses())
	}
}

// buildJunkError crafts a syntactically-valid ICMP Time Exceeded quoting a
// flow no probe of the test owns.
func buildJunkError(t *testing.T) []byte {
	t.Helper()
	src := netip.AddrFrom4([4]byte{203, 0, 113, 7})
	dst := netip.AddrFrom4([4]byte{203, 0, 113, 99})
	uh := &packet.UDP{SrcPort: 4242, DstPort: 2424}
	dgram, err := packet.MarshalUDPInto(nil, src, dst, uh, []byte("junkjunk"))
	if err != nil {
		t.Fatal(err)
	}
	quoted, err := (&packet.IPv4{TTL: 1, Protocol: packet.ProtoUDP, ID: 999, Src: src, Dst: dst}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	m, err := packet.TimeExceeded(quoted)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := packet.MarshalIPv4ICMPInto(nil, &packet.IPv4{
		TTL: 61, Protocol: packet.ProtoICMP, ID: 1,
		Src: netip.AddrFrom4([4]byte{198, 51, 100, 1}), Dst: src,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestLiveScratchReuse traces twice through one tracer.Scratch (the
// campaign steady state) and checks the second trace reuses the result
// buffers without disturbing the measured hops.
func TestLiveScratchReuse(t *testing.T) {
	const seed = 17
	sc := tracer.NewScratch()
	mux, _, dest := newFakeMux(t, scenarios[1].build, seed, SimSchedule{}, 0)
	opts := tracer.Options{Batch: true, Scratch: sc}
	first := parisTrace(t, mux.Transport(), opts, dest)
	second := parisTrace(t, mux.Transport(), opts, dest)
	assertMuxDrained(t, mux)
	if !first.Equal(second) {
		t.Error("second trace through the same Scratch changed the measured route")
	}
}
