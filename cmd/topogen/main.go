// Command topogen generates a random campaign topology and describes it:
// gadget ground truth, router/interface counts, AS layout, and a sample of
// destination routes as measured by a single Paris trace each.
//
// With -delay, -load or -churn the sampled routes carry a virtual RTT per
// hop. The flags are described by -h and in the README.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/netsim"
	"repro/internal/tracer"
)

func main() {
	var gen cli.Topo
	gen.Register(flag.CommandLine, 200)
	sample := flag.Int("sample", 5, "number of destination routes to print")
	flag.Parse()

	sc, err := gen.Generate()
	if err != nil {
		cli.Exit(err)
	}
	dynamics := sc.Net.DynamicsEnabled()

	fmt.Printf("topology seed=%d destinations=%d\n", gen.Seed, len(sc.Dests))
	fmt.Printf("ground truth: %+v\n", sc.Truth)
	fmt.Printf("AS table: %d prefixes\n\n", sc.AS.Len())

	tp := netsim.NewTransport(sc.Net)
	n := *sample
	if n > len(sc.Dests) {
		n = len(sc.Dests)
	}
	for i := 0; i < n; i++ {
		d := sc.Dests[i]
		tr := tracer.NewParisUDP(tp, tracer.Options{})
		rt, err := tr.Trace(d)
		if err != nil {
			fmt.Printf("trace to %s: %v\n", d, err)
			continue
		}
		fmt.Printf("route to %s (%d hops, halt=%v):\n", d, len(rt.Hops), rt.Halt)
		for _, h := range rt.Hops {
			if h.Star() {
				fmt.Printf("  %2d  *\n", h.TTL)
				continue
			}
			asn, _ := sc.AS.Lookup(h.Addr)
			if dynamics {
				fmt.Printf("  %2d  %-15s  AS%-5d  %10s\n", h.TTL, h.Addr, asn, h.RTT)
			} else {
				fmt.Printf("  %2d  %-15s  AS%d\n", h.TTL, h.Addr, asn)
			}
		}
	}
}
