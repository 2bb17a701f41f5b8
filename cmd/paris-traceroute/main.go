// Command paris-traceroute traces routes with any of the probing disciplines
// the paper discusses — paris-udp, paris-icmp, paris-tcp, classic-udp,
// classic-icmp, tcptraceroute — printing classic traceroute-style output
// extended with the Paris observables (probe TTL, response TTL, IP ID). It
// traces through one of the paper's figure topologies by default, the real
// network with -live, or a capture of an earlier live run with -replay;
// -flows N > 1 runs the paper's future-work multipath enumeration instead
// of a single trace. The flags are described by -h and in the README.
//
// Exit codes (internal/cli): 0 every trace completed; 1 a runtime failure —
// a trace error, an unusable capture; 2 a bad flag, scenario or method, or
// missing raw-socket privileges; 130 a -live run stopped by SIGINT/SIGTERM
// (the capture is still installed; a second signal exits at once).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"

	"repro/internal/cli"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

func main() { cli.Exit(run()) }

func run() (err error) {
	var lv cli.Live
	lv.Register(flag.CommandLine, "dest", true)
	scenario := flag.String("scenario", "fig3", "topology: fig1, fig3, fig4, fig5, fig6, random")
	method := flag.String("method", "paris-udp", "probing method")
	flows := flag.Int("flows", 1, "number of flows (>1 enables multipath enumeration)")
	batch := flag.Bool("batch", false, "submit the TTL ladder as batched exchanges")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	if err := lv.Validate(flag.CommandLine); err != nil {
		return err
	}
	if err := cli.AtLeast(flag.CommandLine, 1, "flows"); err != nil {
		return err
	}
	var (
		ctx    = context.Background()
		tp     tracer.Transport
		dests  []netip.Addr
		footer = func() {}
	)
	switch {
	case lv.Replay != "":
		if *flows > 1 {
			return cli.Usagef("-flows > 1 is not supported with -replay")
		}
		rt, ds, err := lv.OpenReplay()
		if err != nil {
			return err
		}
		tp, dests = rt, ds
		footer = func() { cli.WarnDiverged(rt) }
	case lv.On:
		if dests, err = lv.Dests(); err != nil {
			return err
		}
		if *flows > 1 && len(dests) != 1 {
			return cli.Usagef("-flows > 1 enumerates the paths to one destination, not %d", len(dests))
		}
		// Ctrl-C mid-trace cancels the in-flight deadline wheel instead of
		// waiting out the remaining probe timeouts.
		ctx = cli.SignalContext()
		var m *cli.Mux
		if m, err = lv.OpenMux(ctx, nil); err != nil {
			return err
		}
		defer m.CloseInto(&err)
		tp = m.Transport()
		footer = func() {
			h := m.Health()
			fmt.Printf("\nmux: in-flight peak %d, reopens %d, pressure events %d, kernel drops %d, %d RTT estimator(s)\n",
				h.InFlightPeak, h.Reopens, h.PressureEvents, h.KernelDrops, h.Destinations)
		}
	default:
		var dest netip.Addr
		if tp, dest, err = buildScenario(*scenario, *seed); err != nil {
			return err
		}
		dests = []netip.Addr{dest}
	}

	if *flows > 1 {
		err = enumerate(tp, dests[0], *flows)
	} else {
		err = traceAll(ctx, tp, dests, *method, *batch)
	}
	if err != nil {
		return err
	}
	footer()
	return nil
}

// traceAll traces every destination through one tracer and prints the
// routes, a blank line between them.
func traceAll(ctx context.Context, tp tracer.Transport, dests []netip.Addr, method string, batch bool) error {
	tr, err := tracer.New(method, tp, tracer.Options{Batch: batch})
	if err != nil {
		return cli.Usagef("unknown method %q", method)
	}
	for i, d := range dests {
		rt, err := tr.Trace(d)
		if err != nil {
			return fmt.Errorf("trace %v: %w", d, err)
		}
		if i > 0 {
			fmt.Println()
		}
		printRoute(tr.Name(), d, rt)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// printRoute renders one measured route in the classic traceroute style
// extended with the Paris observables.
func printRoute(name string, dest netip.Addr, rt *tracer.Route) {
	fmt.Printf("%s to %s, %d hops max\n", name, dest, 30)
	for _, h := range rt.Hops {
		if h.Star() {
			fmt.Printf("%2d  *\n", h.TTL)
			continue
		}
		extra := ""
		if h.ProbeTTL >= 0 && h.ProbeTTL != 1 {
			extra += fmt.Sprintf("  probe-ttl=%d!", h.ProbeTTL)
		}
		fmt.Printf("%2d  %-15s  %7.3f ms  resp-ttl=%-3d ipid=%-5d%s%s\n",
			h.TTL, h.Addr, float64(h.RTT.Microseconds())/1000, h.RespTTL, h.IPID,
			flagStr(h), extra)
	}
	fmt.Printf("halt: %v\n", rt.Halt)
}

func flagStr(h tracer.Hop) string {
	if f := h.Kind.Flag(); f != "" {
		return "  " + f
	}
	return ""
}

func enumerate(tp tracer.Transport, dest netip.Addr, flows int) error {
	ps, err := tracer.EnumeratePaths(tp, tracer.Options{}, dest, flows)
	if err != nil {
		return err
	}
	fmt.Printf("multipath enumeration to %s over %d flows: %d distinct path(s)\n",
		dest, flows, ps.Distinct())
	for i, addrs := range ps.InterfacesPerHop {
		if len(addrs) <= 1 {
			continue
		}
		fmt.Printf("hop %2d: %d interfaces:", i+1, len(addrs))
		for _, a := range addrs {
			fmt.Printf(" %s", a)
		}
		fmt.Println()
	}
	kind, err := tracer.ClassifyBalancer(tp, tracer.Options{}, dest, flows, 4)
	if err != nil {
		return err
	}
	fmt.Printf("balancer classification: %v\n", kind)
	return nil
}

func buildScenario(name string, seed int64) (tracer.Transport, netip.Addr, error) {
	switch name {
	case "fig1":
		f := topo.BuildFigure1(seed, netsim.PerFlow)
		return netsim.NewTransport(f.Net), f.Dest.Addr, nil
	case "fig3":
		f := topo.BuildFigure3(seed)
		return netsim.NewTransport(f.Net), f.Dest.Addr, nil
	case "fig4":
		f := topo.BuildFigure4(seed)
		return netsim.NewTransport(f.Net), f.Dest.Addr, nil
	case "fig5":
		f := topo.BuildFigure5(seed)
		return netsim.NewTransport(f.Net), f.Dest.Addr, nil
	case "fig6":
		f := topo.BuildFigure6(seed, netsim.PerFlow)
		return netsim.NewTransport(f.Net), f.Dest.Addr, nil
	case "random":
		cfg := topo.DefaultGenConfig()
		cfg.Seed = seed
		cfg.Destinations = 50
		sc := topo.Generate(cfg)
		return sc.Transport(), sc.Dests[0], nil
	default:
		return nil, netip.Addr{}, cli.Usagef("unknown scenario %q", name)
	}
}
