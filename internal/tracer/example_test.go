package tracer_test

import (
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// Trace through a load-balanced network with classic and Paris traceroute
// and watch the classic tool invent a loop that Paris avoids.
//
// This is the paper's Fig. 3 in miniature: a per-flow load balancer splits
// traffic over two branches of unequal length. Classic traceroute changes
// the flow identifier on every probe, so consecutive probes straddle the
// branches and the convergence router appears twice in a row; Paris holds
// the identifier constant and measures a clean path.
func Example_quickstart() {
	fig := topo.BuildFigure3(1)
	tp := netsim.NewTransport(fig.Net)
	show := func(rt *tracer.Route) {
		for _, h := range rt.Hops {
			fmt.Printf("  %s\n", h)
		}
		fmt.Printf("  halt: %v\n", rt.Halt)
	}

	fmt.Println("== classic traceroute (destination port varies per probe) ==")
	// Sweep source ports (fresh "process IDs") until the classic tool shows
	// its loop; most flows trip it quickly.
	for pid := uint16(0); pid < 64; pid++ {
		rt, err := tracer.NewClassicUDP(tp, tracer.Options{SrcPort: 32768 + pid, MaxTTL: 15}).Trace(fig.Dest.Addr)
		if err != nil {
			panic(err)
		}
		if loops := anomaly.FindLoops(rt); len(loops) > 0 {
			show(rt)
			for _, l := range loops {
				fmt.Printf("  -> LOOP on %s (hops %d-%d): an artifact, not a real route\n",
					l.Addr, l.Start+1, l.Start+l.Len)
			}
			break
		}
	}

	fmt.Println("\n== Paris traceroute (constant flow identifier) ==")
	rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
	if err != nil {
		panic(err)
	}
	show(rt)
	if len(anomaly.FindLoops(rt)) == 0 {
		fmt.Println("  -> no loop: all probes followed one flow through the balancer")
	}
	// Output:
	// == classic traceroute (destination port varies per probe) ==
	//    1  10.0.0.254  1.000 ms
	//    2  10.0.1.1  2.000 ms
	//    3  10.0.1.3  3.000 ms
	//    4  10.0.1.5  4.000 ms
	//    5  10.0.1.7  5.000 ms
	//    6  10.0.1.9  6.000 ms
	//    7  10.0.1.13  7.000 ms
	//    8  10.0.1.17  8.000 ms
	//    9  10.0.1.17  8.500 ms
	//   10  172.16.0.1  8.500 ms
	//   halt: destination
	//   -> LOOP on 10.0.1.17 (hops 8-9): an artifact, not a real route
	//
	// == Paris traceroute (constant flow identifier) ==
	//    1  10.0.0.254  1.000 ms
	//    2  10.0.1.1  2.000 ms
	//    3  10.0.1.3  3.000 ms
	//    4  10.0.1.5  4.000 ms
	//    5  10.0.1.7  5.000 ms
	//    6  10.0.1.9  6.000 ms
	//    7  10.0.1.13  7.000 ms
	//    8  10.0.1.15  8.000 ms
	//    9  10.0.1.17  8.500 ms
	//   10  172.16.0.1  9.000 ms
	//   halt: destination
	//   -> no loop: all probes followed one flow through the balancer
}
