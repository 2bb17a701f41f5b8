// Command paris-traceroute traces routes through a simulated scenario with
// any of the probing disciplines the paper discusses, printing classic
// traceroute-style output extended with the Paris observables (probe TTL,
// response TTL, IP ID).
//
// Usage:
//
//	paris-traceroute [-scenario fig3] [-method paris-udp] [-flows N] [-shards N] [-batch] [-seed N]
//	paris-traceroute -live {-dest A.B.C.D | -live-dests-file FILE} [-method paris-udp] [-batch]
//	                 [-timeout 2s] [-timeout-floor 100ms] [-retries 1]
//	paris-traceroute -live ... -capture trace.pcap
//	paris-traceroute -replay trace.pcap [-dest A.B.C.D] [-method paris-udp] [-batch] [-retries 1]
//
// Scenarios: fig1, fig3, fig4, fig5, fig6, random. -seed seeds the random
// scenario's generator. With -shards N > 1 the random scenario is
// partitioned across N independent simulated networks and the trace runs
// through the sharded dispatch path. -batch submits the TTL ladder a window
// of TTLs at a time instead of one TTL at a time; the measured route is
// identical either way.
// Methods: paris-udp, paris-icmp, paris-tcp, classic-udp, classic-icmp,
// tcptraceroute.
//
// -live replaces the simulator with the raw-socket mux
// (internal/tracer/live): probes go on the wire verbatim and -dest names
// the real IPv4 destination. Raw sockets need root or CAP_NET_RAW; without
// them the tool explains and exits rather than probing anything. A single
// ICMP+TCP receive pair demultiplexes the responses by quoted flow
// identifier, and per-destination RFC 6298 RTT estimators adapt each probe's
// deadline between -timeout-floor and -timeout: an unanswered probe is
// re-sent up to -retries times, each re-send spaced by the destination's
// exponentially backed-off adaptive timeout, and a probe that exhausts its
// attempts resolves as a star. -timeout, -timeout-floor and -retries apply
// only to live probing (and -timeout and -retries to -replay). A mux health
// summary line (reopens, kernel drops, pressure events) closes the output.
//
// -live-dests-file traces every destination listed in the file (one IPv4
// address per line, '#' comments and blank lines skipped, duplicates
// rejected) through the same mux; -dest is the one-destination case of it.
//
// With -flows N > 1, the tool runs the paper's future-work multipath
// enumeration: one Paris trace per flow, reporting every interface of each
// load balancer and every distinct path.
//
// -capture FILE records every live probe and response (pre-deduplication,
// before retransmit folding) to a classic pcap file as the trace runs; the
// file is installed atomically when the run finishes, so an interrupted run
// still leaves a complete, readable capture. -replay FILE is the offline
// counterpart: it re-serves a captured run through the same flow-key
// attribution as the live demultiplexer — no network, no privileges — and
// traces either -dest or, by default, every destination the capture probed.
// -retries and -timeout must match the captured run's settings; a probe the
// capture does not hold fails the replay loudly rather than guessing. See
// docs/replay.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

func main() {
	scenario := flag.String("scenario", "fig3", "topology: fig1, fig3, fig4, fig5, fig6, random")
	method := flag.String("method", "paris-udp", "probing method")
	flows := flag.Int("flows", 1, "number of flows (>1 enables multipath enumeration)")
	shards := flag.Int("shards", 1, "network shards for the random scenario")
	batch := flag.Bool("batch", false, "submit the TTL ladder as batched exchanges")
	seed := flag.Int64("seed", 1, "simulation seed")
	liveMode := flag.Bool("live", false, "probe the real network over raw sockets instead of the simulator")
	liveDest := flag.String("dest", "", "live destination IPv4 address (required with -live unless -live-dests-file)")
	liveDestsFile := flag.String("live-dests-file", "", "file of live IPv4 destinations, one per line ('#' comments); traces them all through the one mux")
	timeout := flag.Duration("timeout", 2*time.Second, "cap on the adaptive per-probe timeout for live probing")
	timeoutFloor := flag.Duration("timeout-floor", 100*time.Millisecond, "floor of the adaptive per-probe timeout for live probing")
	retries := flag.Int("retries", 1, "re-sends per unanswered live probe")
	capturePath := flag.String("capture", "", "record every live probe and response to this pcap file (requires -live)")
	replayPath := flag.String("replay", "", "replay a captured pcap offline instead of probing (excludes -live and -capture)")
	flag.Parse()

	if *replayPath != "" {
		switch {
		case *liveMode:
			fmt.Fprintln(os.Stderr, "paris-traceroute: -replay is an offline mode and excludes -live")
			os.Exit(2)
		case *capturePath != "":
			fmt.Fprintln(os.Stderr, "paris-traceroute: -capture and -replay are mutually exclusive")
			os.Exit(2)
		case *flows > 1:
			fmt.Fprintln(os.Stderr, "paris-traceroute: -flows > 1 is not supported with -replay")
			os.Exit(2)
		}
		if err := runReplay(*replayPath, *liveDest, *method, *batch, *retries, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
			os.Exit(1)
		}
		return
	}

	var capSink *pcap.Capture
	if *capturePath != "" {
		if !*liveMode {
			fmt.Fprintln(os.Stderr, "paris-traceroute: -capture requires -live (the simulator is already replayable from its seed)")
			os.Exit(2)
		}
		var err error
		if capSink, err = pcap.CreateCapture(*capturePath); err != nil {
			fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
			os.Exit(1)
		}
	}

	if *liveMode {
		dests, err := liveDestinations(*liveDest, *liveDestsFile)
		if err == nil && *flows > 1 && *liveDestsFile != "" {
			err = fmt.Errorf("-flows > 1 is not supported with -live-dests-file")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
			os.Exit(2)
		}
		// Ctrl-C mid-trace cancels the in-flight deadline wheel instead of
		// waiting out the remaining probe timeouts.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		m, err := openLive(ctx, *timeout, *timeoutFloor, *retries, capSink)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
			os.Exit(2)
		}
		err = traceLive(ctx, m, dests, *method, *batch, *flows)
		m.Close()
		// Flush the capture once the mux has stopped feeding it, even when a
		// trace failed: an interrupted run still installs a complete,
		// readable capture.
		if cerr := finishCapture(capSink); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
			os.Exit(1)
		}
		return
	}

	tp, dest, err := buildScenario(*scenario, *seed, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
		os.Exit(2)
	}
	if *flows > 1 {
		if err := enumerate(tp, dest, *flows); err != nil {
			fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
			os.Exit(1)
		}
		return
	}
	tr, err := buildTracer(*method, tp, *batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
		os.Exit(2)
	}
	rt, err := tr.Trace(dest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paris-traceroute:", err)
		os.Exit(1)
	}
	printRoute(tr.Name(), dest, rt)
}

// finishCapture installs an armed capture sink and reports where it went.
func finishCapture(c *pcap.Capture) error {
	if c == nil {
		return nil
	}
	if err := c.Close(); err != nil {
		return fmt.Errorf("finalizing capture: %w", err)
	}
	fmt.Fprintf(os.Stderr, "capture: %d record(s) written to %s\n", c.Count(), c.Path())
	return nil
}

// runReplay re-serves a captured run offline: the pcap's probes and
// responses stand in for the network, attributed by the same flow-key logic
// the live demultiplexer uses. Divergence — a probe the capture never sent,
// mismatched retry settings — fails loudly rather than inventing traffic.
func runReplay(path, destStr, method string, batch bool, retries int, timeout time.Duration) error {
	rt, err := replay.Open(path, replay.Config{Retries: retries, Timeout: timeout})
	if err != nil {
		return err
	}
	tr, err := buildTracer(method, rt, batch)
	if err != nil {
		return err
	}
	dests := rt.Destinations()
	if destStr != "" {
		d, err := netip.ParseAddr(destStr)
		if err != nil || !d.Is4() {
			return fmt.Errorf("-dest %q is not an IPv4 address", destStr)
		}
		dests = []netip.Addr{d}
	}
	if len(dests) == 0 {
		return fmt.Errorf("capture %s holds no probed destinations", path)
	}
	for i, d := range dests {
		route, err := tr.Trace(d)
		if err != nil {
			return fmt.Errorf("replaying trace to %v: %w", d, err)
		}
		if i > 0 {
			fmt.Println()
		}
		printRoute(tr.Name(), d, route)
	}
	if l, j := rt.Leftover(), rt.Junk(); l != 0 || j != 0 {
		fmt.Fprintf(os.Stderr, "replay: %d captured exchange(s) never served, %d junk record(s) — the replayed run diverges from the captured one\n", l, j)
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

// liveDestinations resolves what -live probes: the one -dest, or every line
// of -live-dests-file.
func liveDestinations(dest, destsFile string) ([]netip.Addr, error) {
	switch {
	case dest != "" && destsFile != "":
		return nil, fmt.Errorf("-dest and -live-dests-file are mutually exclusive")
	case destsFile != "":
		return live.ReadDestsFile(destsFile)
	case dest == "":
		return nil, fmt.Errorf("-live requires -dest A.B.C.D or -live-dests-file FILE")
	}
	d, err := netip.ParseAddr(dest)
	if err != nil || !d.Is4() {
		return nil, fmt.Errorf("-dest %q is not an IPv4 address", dest)
	}
	return []netip.Addr{d}, nil
}

// openLive opens the raw-socket mux, failing with a clear explanation when
// the capability is missing.
func openLive(ctx context.Context, timeout, timeoutFloor time.Duration, retries int, capSink *pcap.Capture) (*live.Mux, error) {
	src, err := live.LocalIPv4()
	if err != nil {
		return nil, fmt.Errorf("cannot determine local IPv4 source: %w", err)
	}
	mc := live.MuxConfig{
		Source: src, Timeout: timeout, TimeoutFloor: timeoutFloor,
		Retries: retries, Context: ctx,
	}
	if capSink != nil {
		mc.Capture = capSink
	}
	m, err := live.NewMux(mc)
	if err != nil {
		return nil, fmt.Errorf("live probing unavailable: %w", err)
	}
	return m, nil
}

// traceLive traces every destination through one handle on the mux — or
// enumerates the paths to the only one — and closes with the mux health
// summary.
func traceLive(ctx context.Context, m *live.Mux, dests []netip.Addr, method string, batch bool, flows int) error {
	if flows > 1 {
		if err := enumerate(m.Transport(), dests[0], flows); err != nil {
			return err
		}
	} else {
		tr, err := buildTracer(method, m.Transport(), batch)
		if err != nil {
			return err
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
	}
	h := m.Health()
	fmt.Printf("\nmux: in-flight peak %d, reopens %d, pressure events %d, kernel drops %d, %d RTT estimator(s)\n",
		h.InFlightPeak, h.Reopens, h.PressureEvents, h.KernelDrops, h.Destinations)
	return nil
}

func flagStr(h tracer.Hop) string {
	if f := h.Kind.Flag(); f != "" {
		return "  " + f
	}
	return ""
}

func enumerate(tp tracer.Transport, dest netip.Addr, flows int) error {
	sess := core.NewSession(tp)
	ps, err := sess.EnumeratePaths(dest, flows)
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
	kind, err := sess.ClassifyBalancer(dest, flows, 4)
	if err != nil {
		return err
	}
	fmt.Printf("balancer classification: %v\n", kind)
	return nil
}

func buildScenario(name string, seed int64, shards int) (tracer.Transport, netip.Addr, error) {
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
		cfg.Shards = shards
		sc := topo.Generate(cfg)
		dest := sc.Dests[0]
		// Sharded runs trace a destination off a nonzero shard, so the
		// sharded dispatch path is actually exercised.
		for _, d := range sc.Dests {
			if sc.ShardOf[d] > 0 {
				dest = d
				break
			}
		}
		return sc.Transport(), dest, nil
	default:
		return nil, netip.Addr{}, fmt.Errorf("unknown scenario %q", name)
	}
}

func buildTracer(method string, tp tracer.Transport, batch bool) (tracer.Tracer, error) {
	opts := tracer.Options{Batch: batch}
	switch method {
	case "paris-udp":
		return tracer.NewParisUDP(tp, opts), nil
	case "paris-icmp":
		return tracer.NewParisICMP(tp, opts), nil
	case "paris-tcp":
		return tracer.NewParisTCP(tp, opts), nil
	case "classic-udp":
		return tracer.NewClassicUDP(tp, opts), nil
	case "classic-icmp":
		return tracer.NewClassicICMP(tp, opts), nil
	case "tcptraceroute":
		return tracer.NewTCPTraceroute(tp, opts), nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}
