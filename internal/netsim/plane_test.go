package netsim_test

// Invalidation and edge cases of the compiled forwarding plane. Everything
// here goes through the public API only, so the file also runs against the
// address-keyed walk it replaced: each expectation below held there too
// (apart from the one-Network rule, which nothing enforced).

import (
	"encoding/hex"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/tracer"
)

func ip4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func host32(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, 32) }

func via1(a netip.Addr) []netsim.NextHop { return []netsim.NextHop{{Via: a}} }

var (
	lineSrc  = ip4(10, 0, 0, 1)
	lineHost = ip4(172, 16, 0, 1)
	anyDst   = netip.PrefixFrom(ip4(0, 0, 0, 0), 0)
)

func lineIf(x byte) netip.Addr { return ip4(10, 0, 1, x) }

// line is source -> gw(.1) -> r1(.2) -> r2(.3) -> r3(.4) -> host: /32
// routes toward the host, default routes back, and the gateway's /32 for the
// source — the internal tests' testNet, rebuilt on the public API.
type line struct {
	net  *netsim.Network
	rs   []*netsim.Router // gw, r1, r2, r3
	host *netsim.Host
}

func newLine(seed int64) *line {
	l := &line{net: netsim.New(seed), host: netsim.NewHost("h", lineHost)}
	for i := 0; i < 4; i++ {
		l.rs = append(l.rs, l.net.AddRouter(netsim.NewRouter(fmt.Sprintf("r%d", i), lineIf(byte(i+1)))))
	}
	l.net.AttachHost(l.host, lineIf(4))
	l.net.SetSource(lineSrc, lineIf(1))
	l.rs[0].AddRoute(netsim.Route{Prefix: host32(lineSrc), Hops: via1(lineSrc)})
	for i, r := range l.rs {
		next := lineHost
		if i+1 < len(l.rs) {
			next = lineIf(byte(i + 2))
		}
		r.AddRoute(netsim.Route{Prefix: host32(lineHost), Hops: via1(next)})
		if i > 0 {
			r.AddRoute(netsim.Route{Prefix: anyDst, Hops: via1(lineIf(byte(i)))})
		}
	}
	return l
}

type probeKind int

const (
	probeUDP probeKind = iota
	probeEcho
	probeSYN
)

func mkProbe(t testing.TB, kind probeKind, src, dst netip.Addr, ttl uint8, port uint16) []byte {
	t.Helper()
	var (
		body  []byte
		proto uint8
		err   error
	)
	switch kind {
	case probeUDP:
		proto = packet.ProtoUDP
		body, err = packet.MarshalUDPInto(nil, src, dst, &packet.UDP{SrcPort: port, DstPort: 33435}, make([]byte, 12))
	case probeEcho:
		proto = packet.ProtoICMP
		body, err = (&packet.ICMP{Type: packet.ICMPTypeEchoRequest, ID: port, Seq: uint16(ttl), Payload: make([]byte, 8)}).Marshal()
	case probeSYN:
		proto = packet.ProtoTCP
		body, err = packet.MarshalTCP(src, dst, &packet.TCP{SrcPort: port, DstPort: 80, Seq: 7, Flags: packet.TCPSyn, Window: 1024}, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: ttl, Protocol: proto, Src: src, Dst: dst}).MarshalInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// withIPID is pkt with IP ID id, which tracers set to a probe's index in
// its trace plus one.
func withIPID(t testing.TB, pkt []byte, id uint16) []byte {
	t.Helper()
	h, payload, err := packet.ParseIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	h.ID = id
	out, err := h.MarshalInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ladder is a TTL ladder of every probe kind toward dst.
func ladder(t testing.TB, src, dst netip.Addr, maxTTL int) [][]byte {
	t.Helper()
	var probes [][]byte
	for kind := probeUDP; kind <= probeSYN; kind++ {
		for ttl := 1; ttl <= maxTTL; ttl++ {
			probes = append(probes, mkProbe(t, kind, src, dst, uint8(ttl), uint16(20000+ttl)))
		}
	}
	return probes
}

// exchangeAll runs the probes through Exchange or one ExchangeBatch and
// renders every outcome — response bytes, Steps, OK, RTT — as text.
func exchangeAll(n *netsim.Network, probes [][]byte, batch bool) []string {
	out := make([]string, len(probes))
	if batch {
		res, steps := make([]tracer.ProbeResult, len(probes)), make([]int, len(probes))
		n.ExchangeSteps(probes, res, steps)
		for i, r := range res {
			out[i] = fmt.Sprintf("ok=%v steps=%d rtt=%d resp=%x", r.OK, steps[i], r.RTT, r.Resp)
		}
		return out
	}
	for i, p := range probes {
		resp, steps, rtt, ok := n.ExchangeV(p)
		out[i] = fmt.Sprintf("ok=%v steps=%d rtt=%d resp=%x", ok, steps, rtt, resp)
	}
	return out
}

func diffTranscripts(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outcomes, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: probe %d\n got %s\nwant %s", what, i, got[i], want[i])
		}
	}
}

// forEachMode runs f for dynamics off/on × Exchange/ExchangeBatch.
func forEachMode(t *testing.T, f func(t *testing.T, dyn, batch bool)) {
	for _, dyn := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("dynamics=%v/batch=%v", dyn, batch), func(t *testing.T) { f(t, dyn, batch) })
		}
	}
}

// TestLateRegistrationMatchesFreshBuild registers a router, an interface, a
// host and a new source after exchanges have compiled every forwarding
// table — tables that already name the late addresses, as next hops and as
// /32 prefixes, and are never mutated afterwards, so only the topology
// generation can outdate them. The network must then answer exactly as one
// built in the same order with no exchange in between.
func TestLateRegistrationMatchesFreshBuild(t *testing.T) {
	var (
		src2   = ip4(10, 0, 0, 2)
		gwIf2  = ip4(10, 0, 0, 253)
		r4If   = lineIf(5)
		r3Down = lineIf(14)
		host2  = ip4(172, 16, 0, 2)
	)
	build := func(dyn, batch, exchangeBetween bool) []string {
		l := newLine(11)
		if dyn {
			l.net.SetDynamics(transcriptDynamics)
		}
		gw, r3 := l.rs[0], l.rs[3]
		// Routes for what does not exist yet: host2 behind r4 behind r3,
		// and the way back to a source that has not been declared.
		gw.AddRoute(netsim.Route{Prefix: host32(src2), Hops: via1(src2)})
		gw.AddRoute(netsim.Route{Prefix: host32(host2), Hops: via1(lineIf(2))})
		l.rs[1].AddRoute(netsim.Route{Prefix: host32(host2), Hops: via1(lineIf(3))})
		l.rs[2].AddRoute(netsim.Route{Prefix: host32(host2), Hops: via1(lineIf(4))})
		r3.AddRoute(netsim.Route{Prefix: host32(host2), Hops: via1(r4If)})
		r4 := netsim.NewRouter("r4", r4If)
		r4.AddRoute(netsim.Route{Prefix: host32(host2), Hops: via1(host2)})
		r4.AddRoute(netsim.Route{Prefix: anyDst, Hops: via1(r3Down)})

		// Full-TTL probes to the first host: every router forwards (and
		// compiles), only the host originates, so no router state differs
		// from the build that skips this.
		warm := [][]byte{
			mkProbe(t, probeUDP, lineSrc, lineHost, 64, 1),
			mkProbe(t, probeEcho, lineSrc, lineHost, 64, 2),
			mkProbe(t, probeSYN, lineSrc, lineHost, 64, 3),
			mkProbe(t, probeUDP, lineSrc, host2, 64, 4), // dies at r3: nothing at r4If yet
		}
		if exchangeBetween {
			for _, o := range exchangeAll(l.net, warm[:3], batch) {
				if !strings.HasPrefix(o, "ok=true") {
					t.Fatalf("warm-up probe unanswered: %s", o)
				}
			}
			if o := exchangeAll(l.net, warm[3:], batch)[0]; !strings.HasPrefix(o, "ok=false steps=4 ") {
				t.Fatalf("probe toward the unregistered router: %s, want a drop at step 4", o)
			}
		}

		l.net.AddRouter(r4)
		l.net.AddIface(r3, r3Down)
		l.net.AttachHost(netsim.NewHost("h2", host2), r4If)
		l.net.AddIface(gw, gwIf2)
		l.net.SetSource(src2, gwIf2)

		probes := append(ladder(t, src2, host2, 7), ladder(t, src2, lineHost, 4)...)
		return exchangeAll(l.net, probes, batch)
	}
	forEachMode(t, func(t *testing.T, dyn, batch bool) {
		want := build(dyn, batch, false)
		answered := 0
		for _, o := range want {
			if strings.HasPrefix(o, "ok=true") {
				answered++
			}
		}
		if !dyn && answered != len(want) {
			t.Fatalf("fresh build answered %d of %d probes; the late topology is not reachable", answered, len(want))
		}
		diffTranscripts(t, "registration after the first exchange", build(dyn, batch, true), want)
	})
}

// TestHostAttachedBeforeItsGateway attaches a host naming a gateway
// interface nobody has registered yet.
func TestHostAttachedBeforeItsGateway(t *testing.T) {
	build := func(hostFirst bool) *netsim.Network {
		n := netsim.New(5)
		gw := n.AddRouter(netsim.NewRouter("gw", lineIf(1)))
		leaf := n.AddRouter(netsim.NewRouter("leaf", lineIf(2)))
		h := netsim.NewHost("h", lineHost)
		if hostFirst {
			n.AttachHost(h, lineIf(9))
			n.AddIface(leaf, lineIf(9))
		} else {
			n.AddIface(leaf, lineIf(9))
			n.AttachHost(h, lineIf(9))
		}
		n.SetSource(lineSrc, lineIf(1))
		gw.AddRoute(netsim.Route{Prefix: host32(lineSrc), Hops: via1(lineSrc)})
		gw.AddRoute(netsim.Route{Prefix: host32(lineHost), Hops: via1(lineIf(2))})
		leaf.AddRoute(netsim.Route{Prefix: host32(lineHost), Hops: via1(lineHost)})
		leaf.AddRoute(netsim.Route{Prefix: anyDst, Hops: via1(lineIf(1))})
		return n
	}
	probes := ladder(t, lineSrc, lineHost, 4)
	want := exchangeAll(build(false), probes, true)
	if !strings.HasPrefix(want[3], "ok=true steps=5 ") {
		t.Fatalf("TTL 4 toward the host: %s, want an answer after 5 steps", want[3])
	}
	diffTranscripts(t, "host attached before its gateway", exchangeAll(build(true), probes, true), want)
}

// flipNet is a line whose r1 can send host traffic down either of two
// branches (r2 at .3, or r2b at .13) that meet again at r3.
func flipNet() (*line, func(toB bool) netsim.Route) {
	l := newLine(3)
	r2b := l.net.AddRouter(netsim.NewRouter("r2b", lineIf(13)))
	r2b.AddRoute(netsim.Route{Prefix: host32(lineHost), Hops: via1(lineIf(4))})
	r2b.AddRoute(netsim.Route{Prefix: anyDst, Hops: via1(lineIf(2))})
	return l, func(toB bool) netsim.Route {
		if toB {
			return netsim.Route{Prefix: host32(lineHost), Hops: via1(lineIf(13))}
		}
		return netsim.Route{Prefix: host32(lineHost), Hops: via1(lineIf(3))}
	}
}

// flipProbe is attempt id of one trace's UDP probe toward the line's host:
// the IP ID is the attempt number, as tracers set it.
func flipProbe(t *testing.T, ttl uint8, id uint16) []byte {
	t.Helper()
	dgram, err := packet.MarshalUDPInto(nil, lineSrc, lineHost, &packet.UDP{SrcPort: 10007, DstPort: 33435}, make([]byte, 12))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: ttl, ID: id, Protocol: packet.ProtoUDP, Src: lineSrc, Dst: lineHost}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// answeredBy is the source address of an exchangeAll outcome's response,
// or the zero Addr for a star.
func answeredBy(t *testing.T, outcome string) netip.Addr {
	t.Helper()
	if !strings.HasPrefix(outcome, "ok=true") {
		return netip.Addr{}
	}
	h, _, err := packet.ParseIPv4(mustHex(t, outcome))
	if err != nil {
		t.Fatalf("%s: %v", outcome, err)
	}
	return h.Src
}

// TestFlipScheduleByPosition is the flip gadget: one trace's probes sit at
// consecutive positions, those at or before a toggle take From and later
// ones take To, and Base inverts that — in a batch and one by one.
func TestFlipScheduleByPosition(t *testing.T) {
	for _, base := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("base=%v/batch=%v", base, batch), func(t *testing.T) {
				l, _ := flipNet()
				// TTL 3 expires on whichever branch r1 hands the probe to.
				probes := make([][]byte, 8)
				for i := range probes {
					probes[i] = flipProbe(t, 3, uint16(i+1))
				}
				l.rs[1].SetFaults(netsim.Faults{Flip: &netsim.FlipSchedule{
					From: lineIf(3), To: lineIf(13), Base: base,
					Toggles: []uint32{l.net.Position(probes[3])},
				}})
				for i, o := range exchangeAll(l.net, probes, batch) {
					want := lineIf(3)
					if (i > 3) != base {
						want = lineIf(13)
					}
					if got := answeredBy(t, o); got != want {
						t.Errorf("attempt %d answered by %v, want %v (toggle after attempt 4)", i+1, got, want)
					}
				}
			})
		}
	}
}

// TestFlipNeverRedirectsResponses: a schedule toggled everywhere whose From
// is r1's way back to the source redirects no response — the ICMP error
// returning from r2 still arrives — while the probes themselves, handed to
// another next hop, are not redirected either.
func TestFlipNeverRedirectsResponses(t *testing.T) {
	l, _ := flipNet()
	// r2b's default route leads back to r1: a redirected response would
	// ping-pong until it died.
	l.rs[1].SetFaults(netsim.Faults{Flip: &netsim.FlipSchedule{From: lineIf(1), To: lineIf(13), Base: true}})
	probes := [][]byte{flipProbe(t, 3, 1), flipProbe(t, 3, 2)}
	for i, o := range exchangeAll(l.net, probes, true) {
		if got := answeredBy(t, o); got != lineIf(3) {
			t.Errorf("attempt %d answered by %v, want r2 (%v)", i+1, got, lineIf(3))
		}
	}
}

// mustHex extracts the response bytes from an exchangeAll rendering.
func mustHex(t *testing.T, outcome string) []byte {
	t.Helper()
	_, digits, ok := strings.Cut(outcome, "resp=")
	if !ok || digits == "" {
		t.Fatalf("no response in %q", outcome)
	}
	b, err := hex.DecodeString(digits)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConcurrentFlipsDuringExchanges has eight goroutines exchanging —
// sequentially and in batches — while a ninth keeps flipping r1's route and
// faults: every probe must be answered by one branch or the other. Under
// -race this is the gate for per-visit loads of the compiled table.
func TestConcurrentFlipsDuringExchanges(t *testing.T) {
	l, host := flipNet()
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			toB := i%2 == 0
			l.rs[1].SetRoutes([]netsim.Route{host(toB), {Prefix: anyDst, Hops: via1(lineIf(1))}})
			l.rs[2].SetFaults(netsim.Faults{Silent: i%3 == 0})
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			probes := ladder(t, lineSrc, lineHost, 5)
			for i := 0; i < 40; i++ {
				for _, o := range exchangeAll(l.net, probes, (w+i)%2 == 0) {
					if strings.HasPrefix(o, "ok=false") {
						continue // r2 was silent for this one
					}
					if h, _, err := packet.ParseIPv4(mustHex(t, o)); err != nil {
						t.Errorf("worker %d: %s: %v", w, o, err)
						return
					} else if !h.Src.Is4() {
						t.Errorf("worker %d: response from %v", w, h.Src)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	flipper.Wait()
}

// TestConcurrentAddRouteDuringExchanges has eight goroutines exchanging
// while a ninth keeps appending balanced routes to r1 and now and then
// resets its table. r1's own route to the host balances too, and r1 runs a
// NAT, so every visit reads the entry's hop count and chosen next hop out
// of the hop pool while the appends grow that pool past the published
// snapshot's prefix. The appended prefixes match no probe, so every
// outcome must be the one a quiet table gave. Under -race this is the gate
// for a stored table appended to while it is read.
func TestConcurrentAddRouteDuringExchanges(t *testing.T) {
	l, _ := flipNet()
	base := []netsim.Route{
		{Prefix: host32(lineHost), Hops: []netsim.NextHop{{Via: lineIf(3)}, {Via: lineIf(13)}}},
		{Prefix: anyDst, Hops: via1(lineIf(1))},
	}
	r1 := l.rs[1]
	r1.SetRoutes(base)
	r1.SetNAT(netsim.NAT{Public: ip4(198, 51, 100, 1), Inside: netip.MustParsePrefix("192.168.0.0/16")})
	probes := ladder(t, lineSrc, lineHost, 5)
	want := exchangeAll(l.net, probes, false)
	stop := make(chan struct{})
	var grower sync.WaitGroup
	grower.Add(1)
	go func() {
		defer grower.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%64 == 63 {
				r1.SetRoutes(base)
				continue
			}
			r1.AddRoute(netsim.Route{
				Prefix:  netip.PrefixFrom(ip4(192, 168, byte(i), 0), 24),
				Hops:    []netsim.NextHop{{Via: lineIf(3)}, {Via: lineIf(13)}, {Via: ip4(10, 9, 9, byte(i))}},
				Balance: netsim.PerDestination,
			})
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				for j, o := range exchangeAll(l.net, probes, (w+i)%2 == 0) {
					if o != want[j] {
						t.Errorf("worker %d: probe %d\n got %s\nwant %s", w, j, o, want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	grower.Wait()
}

// TestUnroutableAdjacenciesDropWhereTheyDid pins the step at which a packet
// handed to nothing dies: a next hop or a forwarding override naming an
// unregistered or a non-IPv4 address, and a next hop naming the source
// address for a packet that is not addressed to it.
func TestUnroutableAdjacenciesDropWhereTheyDid(t *testing.T) {
	unregistered := ip4(10, 9, 9, 9)
	v6 := netip.MustParseAddr("2001:db8::1")
	cases := []struct {
		name      string
		arm       func(l *line)
		wantSteps int
	}{
		{"via unregistered", func(l *line) {
			l.rs[2].SetRoutes([]netsim.Route{{Prefix: host32(lineHost), Hops: via1(unregistered)}})
		}, 3},
		{"via non-IPv4", func(l *line) {
			l.rs[2].SetRoutes([]netsim.Route{{Prefix: host32(lineHost), Hops: via1(v6)}})
		}, 3},
		{"via the source", func(l *line) {
			l.rs[2].SetRoutes([]netsim.Route{{Prefix: host32(lineHost), Hops: via1(lineSrc)}})
		}, 3},
		{"override unregistered", func(l *line) {
			l.rs[1].SetFaults(netsim.Faults{ForwardOverride: unregistered})
		}, 2},
		{"override non-IPv4", func(l *line) {
			l.rs[1].SetFaults(netsim.Faults{ForwardOverride: v6})
		}, 2},
		{"override the source", func(l *line) {
			l.rs[1].SetFaults(netsim.Faults{ForwardOverride: lineSrc})
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forEachMode(t, func(t *testing.T, dyn, batch bool) {
				l := newLine(7)
				if dyn {
					// Delay only: no churn, so no brownout can take the
					// probe before the dangling adjacency does.
					l.net.SetDynamics(netsim.Dynamics{Seed: 9, Delay: 1})
				}
				c.arm(l)
				o := exchangeAll(l.net, [][]byte{mkProbe(t, probeUDP, lineSrc, lineHost, 64, 5)}, batch)[0]
				if want := fmt.Sprintf("ok=false steps=%d rtt=0 resp=", c.wantSteps); o != want {
					t.Errorf("got %s, want %s", o, want)
				}
			})
		})
	}
}

// TestProbeToRouterInterface addresses probes to a transit router itself,
// reached through /32 routes for an address that is no host: the router
// answers like a host would, from the interface probed.
func TestProbeToRouterInterface(t *testing.T) {
	forEachMode(t, func(t *testing.T, dyn, batch bool) {
		l := newLine(13)
		if dyn {
			l.net.SetDynamics(netsim.Dynamics{Seed: 9, Delay: 1})
		}
		target := lineIf(3) // r2
		l.rs[0].AddRoute(netsim.Route{Prefix: host32(target), Hops: via1(lineIf(2))})
		l.rs[1].AddRoute(netsim.Route{Prefix: host32(target), Hops: via1(target)})
		probes := [][]byte{
			mkProbe(t, probeUDP, lineSrc, target, 64, 1),
			mkProbe(t, probeEcho, lineSrc, target, 64, 2),
			mkProbe(t, probeSYN, lineSrc, target, 64, 3),
		}
		for i, o := range exchangeAll(l.net, probes, batch) {
			if !strings.HasPrefix(o, "ok=true steps=6 ") {
				t.Fatalf("probe %d: %s, want an answer after 6 steps", i, o)
			}
			h, payload, err := packet.ParseIPv4(mustHex(t, o))
			if err != nil {
				t.Fatal(err)
			}
			if h.Src != target || h.Dst != lineSrc {
				t.Errorf("probe %d: response %v -> %v, want %v -> %v", i, h.Src, h.Dst, target, lineSrc)
			}
			switch i {
			case 0:
				m := new(packet.ICMP)
				if err := packet.ParseICMPInto(payload, m); err != nil || m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodePortUnreachable {
					t.Errorf("UDP probe: %+v %v, want port unreachable", m, err)
				}
			case 1:
				m := new(packet.ICMP)
				if err := packet.ParseICMPInto(payload, m); err != nil || m.Type != packet.ICMPTypeEchoReply || m.ID != 2 {
					t.Errorf("echo probe: %+v %v, want echo reply id 2", m, err)
				}
			case 2:
				th := new(packet.TCP)
				if _, _, err := packet.ParseTCPInto(payload, th); err != nil || th.Flags != packet.TCPRst|packet.TCPAck || th.Ack != 8 {
					t.Errorf("SYN probe: %+v %v, want RST+ACK acking 8", th, err)
				}
			}
		}
	})
}

// TestOriginStamps probes a host and a router interface of one line with
// each probe kind and reads what the box stamps on its answer: the source
// address, the initial TTL (the arrival TTL plus the routers the answer
// crosses on its way back), the IP IDs, and the answer's ICMP type/code or
// TCP flags. Each kind sends the first two probes of a trace (IP IDs 1 and
// 2), whose answers must step by the box's stride, then the second again,
// whose answer must repeat its IP ID. The router originates with TTL 128 and
// IP ID stride 5, the host with its 64 and 1, and port 80 is open on the
// host only. Silenced, either box answers nothing, and then answers the
// first probe with the IP ID it did before.
func TestOriginStamps(t *testing.T) {
	icmpAnswer := func(typ, code uint8) string { return fmt.Sprintf("icmp type=%d code=%d", typ, code) }
	tcpAnswer := func(flags uint8) string { return fmt.Sprintf("tcp flags=%#02x", flags) }
	portUnreach := icmpAnswer(packet.ICMPTypeDestUnreachable, packet.CodePortUnreachable)
	echoReply := icmpAnswer(packet.ICMPTypeEchoReply, 0)
	forEachMode(t, func(t *testing.T, dyn, batch bool) {
		l := newLine(23)
		if dyn {
			l.net.SetDynamics(netsim.Dynamics{Seed: 9, Delay: 1})
		}
		r2 := lineIf(3)
		l.rs[0].AddRoute(netsim.Route{Prefix: host32(r2), Hops: via1(lineIf(2))})
		l.rs[1].AddRoute(netsim.Route{Prefix: host32(r2), Hops: via1(r2)})
		l.rs[2].SetICMPTTL(128).SetIPIDStride(5)
		l.host.OpenTCPPorts = map[uint16]bool{80: true}
		boxes := []struct {
			name    string
			addr    netip.Addr
			ttl     int    // the initial TTL the box stamps
			back    int    // the routers its answers cross to the source
			stride  uint16 // its IP ID step per originated packet
			answers [3]string
			silence func(on bool)
		}{
			{"host", lineHost, 64, 4, 1,
				[3]string{portUnreach, echoReply, tcpAnswer(packet.TCPSyn | packet.TCPAck)},
				func(on bool) { l.host.Silent = on }},
			{"router", r2, 128, 2, 5,
				[3]string{portUnreach, echoReply, tcpAnswer(packet.TCPRst | packet.TCPAck)},
				func(on bool) { l.rs[2].SetFaults(netsim.Faults{Silent: on}) }},
		}
		kinds := [3]string{"udp", "echo", "syn"}
		for _, b := range boxes {
			probe := func(kind probeKind, id uint16) uint16 {
				t.Helper()
				o := exchangeAll(l.net, [][]byte{withIPID(t, mkProbe(t, kind, lineSrc, b.addr, 64, 100), id)}, batch)[0]
				if !strings.HasPrefix(o, "ok=true") {
					t.Fatalf("%s %s probe: %s, want an answer", b.name, kinds[kind], o)
				}
				h, payload, err := packet.ParseIPv4(mustHex(t, o))
				if err != nil {
					t.Fatal(err)
				}
				var got string
				switch h.Protocol {
				case packet.ProtoICMP:
					m := new(packet.ICMP)
					if err := packet.ParseICMPInto(payload, m); err != nil {
						t.Fatal(err)
					}
					got = icmpAnswer(m.Type, m.Code)
				case packet.ProtoTCP:
					th := new(packet.TCP)
					if _, _, err := packet.ParseTCPInto(payload, th); err != nil {
						t.Fatal(err)
					}
					got = tcpAnswer(th.Flags)
				}
				if got != b.answers[kind] {
					t.Errorf("%s %s probe: answered %s, want %s", b.name, kinds[kind], got, b.answers[kind])
				}
				if h.Src != b.addr {
					t.Errorf("%s %s probe: answered from %v, want %v", b.name, kinds[kind], h.Src, b.addr)
				}
				if ttl := int(h.TTL) + b.back; ttl != b.ttl {
					t.Errorf("%s %s probe: initial TTL %d (%d on arrival), want %d", b.name, kinds[kind], ttl, h.TTL, b.ttl)
				}
				return h.ID
			}
			var first uint16
			for kind := probeUDP; kind <= probeSYN; kind++ {
				one, two := probe(kind, 1), probe(kind, 2)
				if two-one != b.stride {
					t.Errorf("%s %s probes: IP IDs %d then %d, want a step of %d", b.name, kinds[kind], one, two, b.stride)
				}
				if again := probe(kind, 2); again != two {
					t.Errorf("%s %s probe sent again: IP ID %d, want %d as the first time", b.name, kinds[kind], again, two)
				}
				if kind == probeUDP {
					first = one
				}
			}
			b.silence(true)
			for kind := probeUDP; kind <= probeSYN; kind++ {
				o := exchangeAll(l.net, [][]byte{mkProbe(t, kind, lineSrc, b.addr, 64, 100)}, batch)[0]
				if !strings.HasPrefix(o, "ok=false") {
					t.Errorf("silent %s %s probe: %s, want a star", b.name, kinds[kind], o)
				}
			}
			b.silence(false)
			if id := probe(probeUDP, 1); id != first {
				t.Errorf("%s after its silence: IP ID %d, want %d as before it", b.name, id, first)
			}
		}
	})
}

// TestSlash32ForNonHostThenLPM routes a packet whose destination is no
// registered host: a /32 entry wins where there is one, the longest covering
// prefix otherwise, and with neither the router answers net-unreachable.
func TestSlash32ForNonHostThenLPM(t *testing.T) {
	forEachMode(t, func(t *testing.T, dyn, batch bool) {
		l := newLine(17)
		if dyn {
			l.net.SetDynamics(netsim.Dynamics{Seed: 9, Delay: 1})
		}
		ghost := ip4(172, 16, 5, 5)
		// gw: /32 for the ghost toward r1; r1: only prefixes, the /24
		// (toward r2) beating the /16 (back to gw); r2: no route at all.
		l.rs[0].AddRoute(netsim.Route{Prefix: host32(ghost), Hops: via1(lineIf(2))})
		l.rs[1].SetRoutes([]netsim.Route{
			{Prefix: netip.PrefixFrom(ip4(172, 16, 0, 0), 16), Hops: via1(lineIf(1))},
			{Prefix: netip.PrefixFrom(ip4(172, 16, 5, 0), 24), Hops: via1(lineIf(3))},
			{Prefix: anyDst, Hops: via1(lineIf(1))},
		})
		l.rs[2].SetRoutes([]netsim.Route{{Prefix: host32(lineSrc), Hops: via1(lineIf(2))}})
		o := exchangeAll(l.net, [][]byte{mkProbe(t, probeUDP, lineSrc, ghost, 64, 9)}, batch)[0]
		if !strings.HasPrefix(o, "ok=true steps=6 ") {
			t.Fatalf("%s, want an answer after 6 steps", o)
		}
		h, payload, err := packet.ParseIPv4(mustHex(t, o))
		if err != nil {
			t.Fatal(err)
		}
		m := new(packet.ICMP)
		if err := packet.ParseICMPInto(payload, m); err != nil {
			t.Fatal(err)
		}
		if h.Src != lineIf(3) || m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodeNetUnreachable {
			t.Errorf("answered by %v type %d code %d, want net-unreachable from %v", h.Src, m.Type, m.Code, lineIf(3))
		}
	})
}

// TestDuplicateSlash32LastWins installs two /32 entries for one host on one
// router: the later one routes, as it did when a map indexed them.
func TestDuplicateSlash32LastWins(t *testing.T) {
	for _, batch := range []bool{false, true} {
		l, host := flipNet()
		l.rs[1].AddRoute(host(true)) // appended after the entry toward r2
		if got := respSrcOf(t, l.net, mkProbe(t, probeUDP, lineSrc, lineHost, 3, 1), batch); got != lineIf(13) {
			t.Errorf("batch=%v: TTL 3 answered by %v, want %v (the later /32)", batch, got, lineIf(13))
		}
		l.rs[1].AddRoute(host(false))
		if got := respSrcOf(t, l.net, mkProbe(t, probeUDP, lineSrc, lineHost, 3, 1), batch); got != lineIf(3) {
			t.Errorf("batch=%v: TTL 3 answered by %v, want %v (the latest /32)", batch, got, lineIf(3))
		}
	}
}

// roundTripRoutes is a table of every shape a route can take: single and
// balanced, under each policy and key kind, with an address past its
// prefix length, and the odd ones a stored entry cannot spell — non-IPv4
// and invalid prefixes, a non-IPv4 next hop, nil and empty hop lists, a
// policy and a key kind past a byte.
func roundTripRoutes() []netsim.Route {
	v6 := netip.MustParseAddr("2001:db8::1")
	three := []netsim.NextHop{{Via: lineIf(2)}, {Via: lineIf(3)}, {Via: ip4(10, 9, 9, 9)}}
	rts := []netsim.Route{
		{Prefix: host32(lineHost), Hops: via1(lineIf(3))},
		{Prefix: anyDst, Hops: via1(lineIf(1)), Balance: netsim.PerPacket},
		{Prefix: netip.PrefixFrom(ip4(172, 16, 9, 77), 24), Hops: via1(lineIf(3))},
	}
	for _, p := range []netsim.Policy{netsim.PerFlow, netsim.PerPacket, netsim.PerDestination} {
		for _, k := range []flow.KeyKind{flow.KeyFirstFourOctets, flow.KeyFiveTuple, flow.KeyDestination} {
			rts = append(rts, netsim.Route{
				Prefix: netip.PrefixFrom(ip4(172, 20, byte(p), byte(k)), 31), Hops: three,
				Balance: p, FlowOpts: flow.Options{Kind: k},
			})
		}
	}
	return append(rts,
		netsim.Route{Prefix: netip.MustParsePrefix("2001:db8::/32"), Hops: via1(lineIf(3))},
		netsim.Route{Prefix: netip.PrefixFrom(netip.AddrFrom16(lineHost.As16()), 128), Hops: via1(lineIf(3))},
		netsim.Route{Prefix: netip.PrefixFrom(lineHost, 33), Hops: via1(lineIf(3))},
		netsim.Route{Hops: via1(lineIf(3))},
		netsim.Route{Prefix: host32(lineHost), Hops: via1(v6)},
		netsim.Route{Prefix: anyDst, Hops: []netsim.NextHop{{Via: lineIf(2)}, {Via: v6}}, Balance: netsim.PerDestination},
		netsim.Route{Prefix: anyDst},
		netsim.Route{Prefix: anyDst, Hops: []netsim.NextHop{}},
		netsim.Route{Prefix: anyDst, Hops: three, Balance: netsim.Policy(300)},
		netsim.Route{Prefix: anyDst, Hops: three, FlowOpts: flow.Options{Kind: flow.KeyKind(-1)}},
	)
}

// TestRoutesRoundTrip: Routes gives back what AddRoute and SetRoutes were
// handed, route for route, and a copy the caller may change.
func TestRoutesRoundTrip(t *testing.T) {
	want := roundTripRoutes()
	added := netsim.NewRouter("added", lineIf(100))
	for _, rt := range want {
		added.AddRoute(rt)
	}
	set := netsim.NewRouter("set", lineIf(101))
	set.SetRoutes(want)
	for _, r := range []*netsim.Router{added, set} {
		got := r.Routes()
		if len(got) != len(want) {
			t.Fatalf("%s: %d routes back, want %d", r.Name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: route %d came back as %+v, want %+v", r.Name, i, got[i], want[i])
			}
		}
		for i := range got {
			got[i].Hops = append(got[i].Hops, netsim.NextHop{Via: lineIf(9)})
			if len(got[i].Hops) > 1 {
				got[i].Hops[0].Via = lineIf(8)
			}
		}
		if again := r.Routes(); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: changing the routes Routes returned changed the table", r.Name)
		}
	}
}

// TestOddPrefixesMatchNothing: a non-IPv4 or invalid prefix routes nothing,
// not even a default route's worth, so r1 answers net-unreachable; the
// IPv4 /24 installed after them still routes.
func TestOddPrefixesMatchNothing(t *testing.T) {
	for _, batch := range []bool{false, true} {
		l := newLine(29)
		odd := []netsim.Route{
			{Prefix: netip.MustParsePrefix("::/0"), Hops: via1(lineIf(3))},
			{Prefix: netip.PrefixFrom(netip.AddrFrom16(lineHost.As16()), 128), Hops: via1(lineIf(3))},
			{Prefix: netip.PrefixFrom(ip4(0, 0, 0, 0), 33), Hops: via1(lineIf(3))},
			{Hops: via1(lineIf(3))},
			{Prefix: host32(lineSrc), Hops: via1(lineIf(1))},
		}
		l.rs[1].SetRoutes(odd)
		h, payload, err := packet.ParseIPv4(mustHex(t, exchangeAll(l.net, [][]byte{mkProbe(t, probeUDP, lineSrc, lineHost, 64, 3)}, batch)[0]))
		if err != nil {
			t.Fatal(err)
		}
		m := new(packet.ICMP)
		if err := packet.ParseICMPInto(payload, m); err != nil {
			t.Fatal(err)
		}
		if h.Src != lineIf(2) || m.Type != packet.ICMPTypeDestUnreachable || m.Code != packet.CodeNetUnreachable {
			t.Errorf("batch=%v: answered by %v type %d code %d, want net-unreachable from %v", batch, h.Src, m.Type, m.Code, lineIf(2))
		}
		l.rs[1].AddRoute(netsim.Route{Prefix: netip.PrefixFrom(ip4(172, 16, 0, 0), 24), Hops: via1(lineIf(3))})
		if got := respSrcOf(t, l.net, mkProbe(t, probeUDP, lineSrc, lineHost, 3, 3), batch); got != lineIf(3) {
			t.Errorf("batch=%v: TTL 3 answered by %v, want %v through the /24", batch, got, lineIf(3))
		}
	}
}

func respSrcOf(t *testing.T, n *netsim.Network, probe []byte, batch bool) netip.Addr {
	t.Helper()
	h, _, err := packet.ParseIPv4(mustHex(t, exchangeAll(n, [][]byte{probe}, batch)[0]))
	if err != nil {
		t.Fatal(err)
	}
	return h.Src
}

// TestRouterBelongsToOneNetwork: a compiled table holds one network's node
// ids, so registering a router in a second Network is refused.
func TestRouterBelongsToOneNetwork(t *testing.T) {
	for name, register := range map[string]func(n *netsim.Network, r *netsim.Router){
		"AddRouter": func(n *netsim.Network, r *netsim.Router) { n.AddRouter(r) },
		"AddIface":  func(n *netsim.Network, r *netsim.Router) { n.AddIface(r, lineIf(200)) },
	} {
		t.Run(name, func(t *testing.T) {
			r := netsim.NewRouter("spine", lineIf(100))
			netsim.New(1).AddRouter(r)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "spine") || !strings.Contains(msg, "another Network") {
					t.Errorf("panic %q, want one naming the router and its other Network", msg)
				}
			}()
			register(netsim.New(2), r)
		})
	}
}

// ladderBatch is a 16-probe TTL ladder toward dst.
func ladderBatch(t testing.TB, src, dst netip.Addr) [][]byte {
	t.Helper()
	probes := make([][]byte, 16)
	for i := range probes {
		probes[i] = mkProbe(t, probeUDP, src, dst, uint8(i+1), 10007)
	}
	return probes
}
