// Diamonds reproduces the paper's Section 4.3 study on the Fig. 6 topology:
// repeated classic traceroutes toward one destination are merged into a
// per-destination graph, diamonds are enumerated, and the same is done with
// Paris traceroute to show the diamonds disappear when the flow identifier
// is held constant.
//
// It then runs the paper's future-work multipath enumeration: many Paris
// flows toward the same destination reveal every interface of the load
// balancer without any false links.
//
// Run: go run ./examples/diamonds
package main

import (
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

func main() {
	fig := topo.BuildFigure6(3, netsim.PerFlow)
	tp := netsim.NewTransport(fig.Net)

	classic := anomaly.NewGraph(fig.Dest.Addr)
	paris := anomaly.NewGraph(fig.Dest.Addr)
	const rounds = 64
	for i := 0; i < rounds; i++ {
		crt, err := tracer.NewClassicUDP(tp, tracer.Options{
			SrcPort: uint16(32768 + i), MaxTTL: 15,
		}).Trace(fig.Dest.Addr)
		if err != nil {
			panic(err)
		}
		classic.Add(crt)
		prt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 15}).Trace(fig.Dest.Addr)
		if err != nil {
			panic(err)
		}
		paris.Add(prt)
	}

	fmt.Printf("per-destination graphs from %d rounds toward %s\n\n", rounds, fig.Dest.Addr)
	cds := classic.Diamonds()
	fmt.Printf("classic graph: %d diamonds\n", len(cds))
	for _, d := range cds {
		fmt.Printf("  (%s, %s) with %d middles -> %v\n",
			d.Head, d.Tail, len(d.Mids), anomaly.ClassifyDiamond(d, paris))
	}
	fmt.Printf("paris graph:   %d diamonds\n\n", len(paris.Diamonds()))

	// Future-work feature: enumerate the balancer's interfaces properly.
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
}
