package live

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
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

// netsimResponder replays probes through net, exactly as the simulator
// transport would answer them.
func netsimResponder(net *netsim.Network) func([]byte) ([]byte, bool) {
	return func(probe []byte) ([]byte, bool) {
		resp, _, ok := net.Exchange(probe)
		return resp, ok
	}
}

// newFakeMux opens a mux over a SimConn backed by a fresh copy of the
// scenario; the tests below trace through one handle of it. A redial
// back-off never sleeps.
func newFakeMux(t *testing.T, build func(int64) (*netsim.Network, netip.Addr), seed int64, sched SimSchedule, retries int) (*Mux, *SimConn, netip.Addr) {
	t.Helper()
	net, dest := build(seed)
	fake := &SimConn{Respond: netsimResponder(net), Sched: sched}
	return openFakeMux(t, MuxConfig{Source: net.Source(), Conn: fake, Retries: retries}), fake, dest
}

// openFakeMux is NewMux for a hermetic test: no sleeping, closed with the test.
func openFakeMux(t *testing.T, cfg MuxConfig) *Mux {
	t.Helper()
	cfg.Sleep = func(time.Duration) {}
	m, err := NewMux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
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

// exchangeOnly hides a handle's ExchangeBatch, so the tracer reaches the mux
// one ExchangeErr at a time.
type exchangeOnly struct{ tracer.FallibleTransport }

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
			return SimSchedule{Dup: func(int) bool { return true }}
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
	// Batch off is the ladder at a window of one TTL, over the same mux.
	ladders := []tracer.Options{
		{Batch: true}, {Batch: true, BatchWindow: 1}, {Batch: true, BatchWindow: 4}, {},
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
						t.Fatalf("%s/%s/%s batch=%v w=%d: %v", sc.name, m.name, sch.name, opts.Batch, opts.BatchWindow, err)
					}
					assertMuxDrained(t, mux)
					if !got.Equal(want) {
						t.Errorf("%s/%s/%s batch=%v w=%d: live route differs from netsim\ngot:  halt=%v hops=%v\nwant: halt=%v hops=%v",
							sc.name, m.name, sch.name, opts.Batch, opts.BatchWindow,
							got.Halt, got.Addresses(), want.Halt, want.Addresses())
					}
				}
			}
		}
	}
}

// TestLiveSequentialExchange hides the handle's ExchangeBatch, so the ladder
// reaches the mux through the tracer's per-probe path — one
// MuxTransport.ExchangeErr per probe — and requires the same route as the
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
		got, err := m.mk(exchangeOnly{mux.Transport()}, tracer.Options{}).Trace(dest)
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
	want, err := tracer.NewParisUDP(netsim.NewTransport(net1), tracer.Options{}).Trace(dest1)
	if err != nil {
		t.Fatal(err)
	}

	net2, dest := scenarios[1].build(seed)
	inner := netsimResponder(net2)
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
	got, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{Batch: true}).Trace(dest)
	if err != nil {
		t.Fatal(err)
	}
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

// TestLiveRetriesExhausted drops every response to an unbatched trace, whose
// ladder submits one TTL at a time: the wheel must re-send each probe
// exactly Retries times before starring it, and the ladder must halt on the
// consecutive-star rule having probed not one TTL more. (The batched window
// is TestMuxRetriesExhausted's.)
func TestLiveRetriesExhausted(t *testing.T) {
	const retries = 2
	mux, fake, dest := newFakeMux(t, scenarios[1].build, 5,
		SimSchedule{Drop: func(int, []byte) bool { return true }}, retries)
	got, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{}).Trace(dest)
	if err != nil {
		t.Fatal(err)
	}
	assertMuxDrained(t, mux)
	if got.Halt != tracer.HaltStars {
		t.Fatalf("halt = %v, want stars", got.Halt)
	}
	if len(got.Hops) != 8 { // default MaxConsecutiveStars
		t.Fatalf("got %d hops, want 8 (the star run)", len(got.Hops))
	}
	for _, h := range got.Hops {
		if !h.Star() {
			t.Fatalf("hop %d responded under a drop-everything schedule", h.TTL)
		}
	}
	// Eight one-TTL windows, each probe sent 1 + retries times.
	if want := 8 * (1 + retries); fake.SendCount() != want {
		t.Errorf("sent %d probes, want %d (8 probes x %d attempts)", fake.SendCount(), want, 1+retries)
	}
}

// TestLiveUnrelatedTrafficIgnored floods the receive path with traffic that
// must never match: our own outbound probes (as a loopback capture would
// deliver them), ICMP errors quoting someone else's flow, and unparseable
// noise. The measured route must be unaffected.
func TestLiveUnrelatedTrafficIgnored(t *testing.T) {
	const seed = 13
	net1, dest1 := scenarios[1].build(seed)
	want, err := tracer.NewParisUDP(netsim.NewTransport(net1), tracer.Options{}).Trace(dest1)
	if err != nil {
		t.Fatal(err)
	}

	net2, dest := scenarios[1].build(seed)
	inner := netsimResponder(net2)
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
	got, err := tracer.NewParisUDP(mux.Transport(), tracer.Options{Batch: true}).Trace(dest)
	if err != nil {
		t.Fatal(err)
	}
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
	first, err := tracer.NewParisUDP(mux.Transport(), opts).Trace(dest)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tracer.NewParisUDP(mux.Transport(), opts).Trace(dest)
	if err != nil {
		t.Fatal(err)
	}
	assertMuxDrained(t, mux)
	if !first.Equal(second) {
		t.Error("second trace through the same Scratch changed the measured route")
	}
}
