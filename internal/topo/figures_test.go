package topo

import (
	"net/netip"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/tracer"
)

func traceWith(t *testing.T, tr tracer.Tracer, dest netip.Addr) *tracer.Route {
	t.Helper()
	rt, err := tr.Trace(dest)
	if err != nil {
		t.Fatalf("%s trace to %v: %v", tr.Name(), dest, err)
	}
	return rt
}

func TestFigure3ClassicLoopParisClean(t *testing.T) {
	fig := BuildFigure3(1)
	tp := netsim.NewTransport(fig.Net)

	// Classic traceroute varies the destination port per probe; across
	// many traces the hop-8 and hop-9 probes must sometimes straddle the
	// two branches, showing E twice in a row.
	classicLoops := 0
	const runs = 64
	for i := 0; i < runs; i++ {
		tr := tracer.NewClassicUDP(tp, tracer.Options{
			DstPort: uint16(33435 + i*41),
			MaxTTL:  15,
		})
		rt := traceWith(t, tr, fig.Dest.Addr)
		for _, l := range anomaly.FindLoops(rt) {
			if l.Addr == fig.E {
				classicLoops++
			}
		}
	}
	if classicLoops == 0 {
		t.Fatalf("classic traceroute never produced the Fig. 3 loop on E over %d runs", runs)
	}

	// Paris traceroute holds the flow identifier constant: no loop, for
	// any flow.
	for i := 0; i < runs; i++ {
		tr := tracer.NewParisUDP(tp, tracer.Options{
			SrcPort: uint16(10000 + i*7),
			DstPort: uint16(20000 + i*13),
			MaxTTL:  15,
		})
		rt := traceWith(t, tr, fig.Dest.Addr)
		if loops := anomaly.FindLoops(rt); len(loops) != 0 {
			t.Fatalf("paris traceroute (flow %d) produced loops %v; route %v", i, loops, rt.Addresses())
		}
		if !rt.Reached() {
			t.Fatalf("paris trace did not reach destination: halt=%v route=%v", rt.Halt, rt.Addresses())
		}
	}
}

func TestFigure4ZeroTTLLoop(t *testing.T) {
	fig := BuildFigure4(1)
	tp := netsim.NewTransport(fig.Net)
	tr := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15})
	rt := traceWith(t, tr, fig.Dest.Addr)

	loops := anomaly.FindLoops(rt)
	if len(loops) != 1 {
		t.Fatalf("want exactly one loop, got %v; route %v", loops, rt.Addresses())
	}
	l := loops[0]
	if l.Addr != fig.A {
		t.Fatalf("loop on %v, want on A=%v", l.Addr, fig.A)
	}
	// The first response of the loop must quote probe TTL 0, the second 1.
	h1, h2 := rt.Hops[l.Start], rt.Hops[l.Start+1]
	if h1.ProbeTTL != 0 || h2.ProbeTTL != 1 {
		t.Fatalf("probe TTLs = %d,%d; want 0,1", h1.ProbeTTL, h2.ProbeTTL)
	}
	if got := anomaly.ClassifyLoop(l, rt, nil); got != anomaly.CauseZeroTTL {
		t.Fatalf("classified as %v, want zero-ttl-forwarding", got)
	}
	// F itself never appears: it forwards every TTL-expiring probe.
	for _, h := range rt.Hops {
		if h.Addr == fig.F {
			t.Fatalf("faulty router F appeared in the measured route %v", rt.Addresses())
		}
	}
}

func TestFigure5NATLoop(t *testing.T) {
	fig := BuildFigure5(1)
	tp := netsim.NewTransport(fig.Net)
	tr := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15})
	rt := traceWith(t, tr, fig.Dest.Addr)

	if !rt.Reached() {
		t.Fatalf("trace did not reach destination: halt=%v route=%v", rt.Halt, rt.Addresses())
	}
	loops := anomaly.FindLoops(rt)
	if len(loops) != 1 {
		t.Fatalf("want exactly one loop, got %v; route %v", loops, rt.Addresses())
	}
	l := loops[0]
	if l.Addr != fig.N {
		t.Fatalf("loop on %v, want on N=%v", l.Addr, fig.N)
	}
	if l.Len != fig.NATHops {
		t.Fatalf("loop length %d, want %d (N, B, C, dest all as N0)", l.Len, fig.NATHops)
	}
	if !l.AtEnd {
		t.Fatal("NAT loop should sit at the end of the measured route")
	}
	// Response TTL must decrease by one per hop across the rewritten
	// router run (Fig. 5's 249, 248, 247 gradient); the final hop is the
	// destination host, which starts from its own initial TTL (64) and
	// therefore only needs to continue the strict decrease.
	for i := l.Start + 1; i < l.Start+l.Len-1; i++ {
		if rt.Hops[i].RespTTL != rt.Hops[i-1].RespTTL-1 {
			t.Fatalf("response TTLs not a unit gradient: hop %d has %d after %d",
				i, rt.Hops[i].RespTTL, rt.Hops[i-1].RespTTL)
		}
	}
	last, prev := rt.Hops[l.Start+l.Len-1], rt.Hops[l.Start+l.Len-2]
	if last.RespTTL >= prev.RespTTL {
		t.Fatalf("response TTL did not keep decreasing at the host hop: %d then %d",
			prev.RespTTL, last.RespTTL)
	}
	if got := anomaly.ClassifyLoop(l, rt, nil); got != anomaly.CauseAddressRewriting {
		t.Fatalf("classified as %v, want address-rewriting", got)
	}
}

func TestFigure6DiamondSet(t *testing.T) {
	fig := BuildFigure6(1, netsim.PerFlow)
	tp := netsim.NewTransport(fig.Net)

	classic := anomaly.NewGraph(fig.Dest.Addr)
	paris := anomaly.NewGraph(fig.Dest.Addr)
	const rounds = 96
	for i := 0; i < rounds; i++ {
		c := tracer.NewClassicUDP(tp, tracer.Options{DstPort: uint16(33435 + i*67), MaxTTL: 15})
		classic.Add(traceWith(t, c, fig.Dest.Addr))
		p := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15})
		paris.Add(traceWith(t, p, fig.Dest.Addr))
	}

	cd := classic.Diamonds()
	if len(cd) == 0 {
		t.Fatal("classic graph contains no diamonds")
	}
	// The convergence diamonds (branchHead, G) must appear: measured
	// routes mix the middles D, E, F between any head and G.
	foundHeadG := false
	foundLMid := false
	for _, d := range cd {
		if d.Tail == fig.G {
			for _, h := range fig.BranchHeads {
				if d.Head == h {
					foundHeadG = true
				}
			}
		}
		if d.Head == fig.L {
			for _, m := range fig.BranchMids {
				if d.Tail == m {
					foundLMid = true
				}
			}
		}
	}
	if !foundHeadG || !foundLMid {
		t.Fatalf("expected diamonds of forms (head,G) and (L,mid); got %+v", cd)
	}
	if pd := paris.Diamonds(); len(pd) != 0 {
		t.Fatalf("paris graph contains diamonds %v; same-flow probing must hold one path", pd)
	}
	for _, d := range cd {
		if got := anomaly.ClassifyDiamond(d, paris); got != anomaly.CausePerFlowLB {
			t.Fatalf("diamond %v classified %v, want per-flow-lb", d, got)
		}
	}
}

func TestFigure1FalseLinksAndMissingNodes(t *testing.T) {
	fig := BuildFigure1(1, netsim.PerPacket)
	tp := netsim.NewTransport(fig.Net)

	// With random per-packet balancing and one probe per hop, hop 7 and
	// hop 8 responders are independent coin flips between the branches;
	// over many traces, one a round, both the A-then-D and B-then-C
	// orders (false links) must appear.
	sawFalseAD, sawFalseBC := false, false
	for i := 0; i < 200; i++ {
		fig.Net.SetVirtualRound(i)
		tr := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15})
		rt := traceWith(t, tr, fig.Dest.Addr)
		addrs := rt.Addresses()
		for j := 0; j+1 < len(addrs); j++ {
			if addrs[j] == fig.A && addrs[j+1] == fig.D {
				sawFalseAD = true
			}
			if addrs[j] == fig.B && addrs[j+1] == fig.C {
				sawFalseBC = true
			}
		}
	}
	if !sawFalseAD || !sawFalseBC {
		t.Fatalf("per-packet balancing never produced the false links (A,D)=%v (B,C)=%v",
			sawFalseAD, sawFalseBC)
	}

	// With per-flow balancing, Paris holds one branch: never a false link.
	figF := BuildFigure1(2, netsim.PerFlow)
	tpF := netsim.NewTransport(figF.Net)
	for i := 0; i < 64; i++ {
		tr := tracer.NewParisUDP(tpF, tracer.Options{
			SrcPort: uint16(11000 + i), MaxTTL: 15,
		})
		rt := traceWith(t, tr, figF.Dest.Addr)
		addrs := rt.Addresses()
		for j := 0; j+1 < len(addrs); j++ {
			if (addrs[j] == figF.A && addrs[j+1] == figF.D) ||
				(addrs[j] == figF.B && addrs[j+1] == figF.C) {
				t.Fatalf("paris produced false link in %v", addrs)
			}
		}
	}
}
