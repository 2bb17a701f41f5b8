package anomaly_test

import (
	"fmt"
	"net/netip"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// trace is one route toward dest, by the classic tool from the given source
// port or, when port is zero, by Paris traceroute.
func trace(tp tracer.Transport, dest netip.Addr, port uint16) *tracer.Route {
	mk := tracer.NewParisUDP
	if port != 0 {
		mk = tracer.NewClassicUDP
	}
	rt, err := mk(tp, tracer.Options{SrcPort: port, MaxTTL: 15}).Trace(dest)
	if err != nil {
		panic(err)
	}
	return rt
}

// showLoops prints a route with the observables Paris traceroute adds
// (probe TTL, response TTL, IP ID), then each loop on it with the cause the
// classifier attributes; paris is the paired Paris route (a Paris trace is
// its own pair).
func showLoops(name string, rt, paris *tracer.Route) {
	fmt.Printf("== %s ==\n", name)
	for _, h := range rt.Hops {
		extra := ""
		if h.ProbeTTL == 0 {
			extra = "   <- quoted probe TTL 0"
		}
		fmt.Printf("  %s  resp-ttl=%d ipid=%d%s\n", h, h.RespTTL, h.IPID, extra)
	}
	pc := anomaly.ClassifyPair(rt, paris)
	for i, l := range pc.Loops {
		fmt.Printf("  loop on %s (len %d, at-end=%v) -> cause: %v\n", l.Addr, l.Len, l.AtEnd, pc.LoopCauses[i])
	}
	fmt.Println()
}

// Reproduce and classify every loop cause in the paper's Section 4.1
// taxonomy, one figure at a time: per-flow load balancing over
// unequal-length branches (Fig. 3), zero-TTL forwarding (Fig. 4), NAT
// address rewriting (Fig. 5), and unreachability (Time Exceeded, then !H
// from the same router).
func Example_loophunt() {
	fig3 := topo.BuildFigure3(7)
	tp := netsim.NewTransport(fig3.Net)
	paris := trace(tp, fig3.Dest.Addr, 0)
	// Find a classic flow that straddles the branches.
	for pid := uint16(0); pid < 128; pid++ {
		if rt := trace(tp, fig3.Dest.Addr, 32768+pid); len(anomaly.FindLoops(rt)) > 0 {
			showLoops("Fig. 3: loop from per-flow load balancing", rt, paris)
			break
		}
	}

	fig4 := topo.BuildFigure4(7)
	rt4 := trace(netsim.NewTransport(fig4.Net), fig4.Dest.Addr, 0)
	showLoops("Fig. 4: loop from zero-TTL forwarding", rt4, rt4)
	fig5 := topo.BuildFigure5(7)
	rt5 := trace(netsim.NewTransport(fig5.Net), fig5.Dest.Addr, 0)
	showLoops("Fig. 5: loop from NAT address rewriting", rt5, rt5)

	// A plain chain whose third router cannot forward: Time Exceeded for
	// the probe that expires there, Destination Unreachable (!H) for the
	// next — the same address twice, then the trace halts.
	b := topo.NewBuilder(7)
	chain := b.Chain(b.Gateway, 4)
	dest := b.AttachHost(chain[3], "dest", false)
	for i, r := range []*netsim.Router{b.Gateway, chain[0], chain[1], chain[2]} {
		r.AddRoute(netsim.Route{
			Prefix: netip.PrefixFrom(dest.Addr, 32),
			Hops:   []netsim.NextHop{{Via: chain[i].Iface(0)}},
		})
	}
	chain[2].SetFaults(netsim.Faults{Unreachable: true})
	rtU := trace(netsim.NewTransport(b.Net), dest.Addr, 0)
	showLoops("Unreachability: Time Exceeded then !H from one router", rtU, rtU)
	// Output:
	// == Fig. 3: loop from per-flow load balancing ==
	//    1  10.0.0.254  1.000 ms  resp-ttl=255 ipid=33560
	//    2  10.0.1.1  2.000 ms  resp-ttl=254 ipid=7440
	//    3  10.0.1.3  3.000 ms  resp-ttl=253 ipid=19353
	//    4  10.0.1.5  4.000 ms  resp-ttl=252 ipid=27459
	//    5  10.0.1.7  5.000 ms  resp-ttl=251 ipid=61067
	//    6  10.0.1.9  6.000 ms  resp-ttl=250 ipid=41161
	//    7  10.0.1.13  7.000 ms  resp-ttl=249 ipid=53349
	//    8  10.0.1.17  8.000 ms  resp-ttl=248 ipid=61239
	//    9  10.0.1.17  8.500 ms  resp-ttl=248 ipid=61240
	//   10  172.16.0.1  8.500 ms  resp-ttl=56 ipid=41799
	//   loop on 10.0.1.17 (len 2, at-end=false) -> cause: per-flow-lb
	//
	// == Fig. 4: loop from zero-TTL forwarding ==
	//    1  10.0.0.254  1.000 ms  resp-ttl=255 ipid=33581
	//    2  10.0.1.1  2.000 ms  resp-ttl=254 ipid=7461
	//    3  10.0.1.3  3.000 ms  resp-ttl=253 ipid=19374
	//    4  10.0.1.5  4.000 ms  resp-ttl=252 ipid=27480
	//    5  10.0.1.7  5.000 ms  resp-ttl=251 ipid=61088
	//    6  10.0.1.9  6.000 ms  resp-ttl=250 ipid=59555
	//    7  10.0.1.13  8.000 ms  resp-ttl=248 ipid=38400   <- quoted probe TTL 0
	//    8  10.0.1.13  8.000 ms  resp-ttl=248 ipid=38401
	//    9  10.0.1.15  9.000 ms  resp-ttl=247 ipid=53372
	//   10  172.16.0.1  9.500 ms  resp-ttl=55 ipid=41820
	//   loop on 10.0.1.13 (len 2, at-end=false) -> cause: zero-ttl-forwarding
	//
	// == Fig. 5: loop from NAT address rewriting ==
	//    1  10.0.0.254  1.000 ms  resp-ttl=255 ipid=33598
	//    2  10.0.1.1  2.000 ms  resp-ttl=254 ipid=7478
	//    3  10.0.1.3  3.000 ms  resp-ttl=253 ipid=19391
	//    4  10.0.1.5  4.000 ms  resp-ttl=252 ipid=27497
	//    5  10.0.1.7  5.000 ms  resp-ttl=251 ipid=61105
	//    6  10.0.1.9  6.000 ms  resp-ttl=250 ipid=38416
	//    7  10.0.1.11  7.000 ms  resp-ttl=249 ipid=8399
	//    8  10.0.1.11  8.000 ms  resp-ttl=248 ipid=53388
	//    9  10.0.1.11  9.000 ms  resp-ttl=247 ipid=47353
	//   10  10.0.1.11  9.500 ms  resp-ttl=55 ipid=41837
	//   loop on 10.0.1.11 (len 4, at-end=true) -> cause: address-rewriting
	//
	// == Unreachability: Time Exceeded then !H from one router ==
	//    1  10.0.0.254  1.000 ms  resp-ttl=255 ipid=33581
	//    2  10.0.1.1  2.000 ms  resp-ttl=254 ipid=7461
	//    3  10.0.1.3  3.000 ms  resp-ttl=253 ipid=19374
	//    4  10.0.1.5  4.000 ms  resp-ttl=252 ipid=27480
	//    5  10.0.1.5  4.000 ms  !H  resp-ttl=252 ipid=27481
	//   loop on 10.0.1.5 (len 2, at-end=true) -> cause: unreachability
}

// Reproduce the paper's Section 4.3 study on the Fig. 6 topology: repeated
// classic traceroutes toward one destination merge into a per-destination
// graph whose diamonds disappear when Paris traceroute holds the flow
// identifier constant. Then run the paper's future-work multipath
// enumeration: many Paris flows toward the destination reveal every
// interface of the load balancer without any false links.
func Example_diamonds() {
	fig := topo.BuildFigure6(3, netsim.PerFlow)
	tp := netsim.NewTransport(fig.Net)
	classic, paris := anomaly.NewGraph(fig.Dest.Addr), anomaly.NewGraph(fig.Dest.Addr)
	const rounds = 64
	for i := range uint16(rounds) {
		classic.Add(trace(tp, fig.Dest.Addr, 32768+i))
		paris.Add(trace(tp, fig.Dest.Addr, 0))
	}
	fmt.Printf("per-destination graphs from %d rounds toward %s\n\n", rounds, fig.Dest.Addr)
	cds := classic.Diamonds()
	fmt.Printf("classic graph: %d diamonds\n", len(cds))
	for _, d := range cds {
		fmt.Printf("  (%s, %s) with %d middles -> %v\n", d.Head, d.Tail, len(d.Mids), anomaly.ClassifyDiamond(d, paris))
	}
	fmt.Printf("paris graph:   %d diamonds\n\n", len(paris.Diamonds()))

	opts := tracer.Options{MaxTTL: 15}
	ps, err := tracer.EnumeratePaths(tp, opts, fig.Dest.Addr, 48)
	if err != nil {
		panic(err)
	}
	fmt.Printf("multipath enumeration over 48 flows: %d distinct paths\n", ps.Distinct())
	for i, addrs := range ps.InterfacesPerHop {
		if len(addrs) > 1 {
			fmt.Printf("  hop %2d has %d interfaces: %v\n", i+1, len(addrs), addrs)
		}
	}
	kind, err := tracer.ClassifyBalancer(tp, opts, fig.Dest.Addr, 48, 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("balancer classified as: %v\n", kind)
	// Output:
	// per-destination graphs from 64 rounds toward 172.16.0.1
	//
	// classic graph: 6 diamonds
	//   (10.0.1.9, 10.0.1.17) with 3 middles -> per-flow-lb
	//   (10.0.1.9, 10.0.1.19) with 3 middles -> per-flow-lb
	//   (10.0.1.9, 10.0.1.21) with 3 middles -> per-flow-lb
	//   (10.0.1.11, 10.0.1.23) with 3 middles -> per-flow-lb
	//   (10.0.1.13, 10.0.1.23) with 3 middles -> per-flow-lb
	//   (10.0.1.15, 10.0.1.23) with 3 middles -> per-flow-lb
	// paris graph:   0 diamonds
	//
	// multipath enumeration over 48 flows: 3 distinct paths
	//   hop  7 has 3 interfaces: [10.0.1.11 10.0.1.13 10.0.1.15]
	//   hop  8 has 3 interfaces: [10.0.1.17 10.0.1.19 10.0.1.21]
	// balancer classified as: per-flow
}
