// Command measured is the always-on measurement service: the paper's paired
// classic/Paris probing run as a long-lived daemon (internal/daemon) instead
// of a one-shot campaign. It owns per-destination probing cadence (periodic
// re-probe, immediate re-exploration when a route's fingerprint changes),
// survives worker panics and wedged transports, sheds load explicitly when
// the due queue exceeds capacity, serves health/stats/events over HTTP, and
// checkpoints continuously so a kill -9 resumes where it left off.
//
// Usage:
//
//	measured [-dests N] [-seed N] [-listen ADDR] [-period N] [-interval D]
//	         [-workers N] [-queue-cap N] [-rate P] [-burst N]
//	         [-stall-timeout D] [-max-restarts N]
//	         [-checkpoint measured.ck] [-checkpoint-every N] [-fresh]
//	         [-max-rounds N] [-delay S] [-load L] [-churn C]
//	         [-dynamics-seed N] [-flips] [-batch]
//	         [-fault-seed N] [-fault-transient-every K] [-fault-drop-every K]
//	         [-fault-panic-every K]
//	measured -live {-live-dests A.B.C.D[,...] | -live-dests-file FILE}
//	         [-timeout D] [-timeout-floor D] [-retries N] [-capture run.pcap]
//
// The default transport is the deterministic simulator over a generated
// topology; -live swaps in the shared raw-socket mux (root or CAP_NET_RAW):
// one ICMP+TCP receive pair serves every daemon worker, per-destination
// RFC 6298 RTT estimators adapt probe deadlines between -timeout-floor and
// -timeout, and the mux health counters (reopens, kernel drops, degradation
// level, RTO spread) are served in /stats under Robust.Mux.
// -capture records every live probe and response (pre-deduplication) to a
// classic pcap file, installed atomically on shutdown — including the
// signalled drain — for offline replay with anomaly-study -replay or
// paris-traceroute -replay (see docs/replay.md).
// -rate installs a token-bucket pacer over whichever transport is selected,
// capping the process's aggregate probe rate; under live receive pressure
// the mux halves that rate per degradation level and restores it as the
// pressure clears. The -fault-* flags afflict
// the simulator with seeded transient-error, response-drop, and injected-
// panic schedules — the hermetic soak configuration CI exercises the
// supervision machinery with.
//
// Signals: the first SIGINT/SIGTERM starts a graceful drain (finish the
// round, write the final checkpoint, exit 130); a second signal forces an
// immediate exit 130 without draining.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/asmap"
	"repro/internal/daemon"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
)

func main() {
	dests := flag.Int("dests", 200, "number of simulated destinations")
	seed := flag.Int64("seed", 42, "topology, port, and dynamics seed")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address for /healthz /readyz /stats /events (empty: no HTTP)")
	period := flag.Int("period", 5, "re-probe cadence in scheduler rounds")
	interval := flag.Duration("interval", time.Second, "wall-clock pause between scheduler rounds")
	workers := flag.Int("workers", 4, "supervised probing workers")
	queueCap := flag.Int("queue-cap", 0, "per-round job admission bound; overflow is shed oldest-first (0: 8*workers)")
	rate := flag.Float64("rate", 0, "aggregate probe rate cap in probes/second (0: unpaced)")
	burst := flag.Int("burst", 64, "probe pacer burst capacity")
	stallTimeout := flag.Duration("stall-timeout", 30*time.Second, "watchdog deadline per trace; stalled traces are abandoned")
	maxRestarts := flag.Int("max-restarts", 8, "panic restarts per worker slot before it stays dead")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for continuous checkpointing and startup auto-recovery")
	checkpointEvery := flag.Int("checkpoint-every", 1, "write the checkpoint every N completed rounds")
	fresh := flag.Bool("fresh", false, "ignore an existing checkpoint instead of recovering from it")
	maxRounds := flag.Int("max-rounds", 0, "stop after N completed rounds (0: run until signalled)")
	batch := flag.Bool("batch", true, "submit each trace's TTL ladder as batched exchanges")
	flips := flag.Bool("flips", true, "enable mid-trace path flips (disable for reproducible soaks)")
	delay := flag.Float64("delay", 0, "virtual-clock per-link delay scale (1 = calibrated; 0 disables)")
	load := flag.Float64("load", 0, "virtual-clock background cross-traffic intensity in [0, 0.95]")
	churn := flag.Float64("churn", 0, "virtual-clock scheduled-dynamics rate in [0, 1]")
	dynamicsSeed := flag.Int64("dynamics-seed", 0, "seed for the virtual-clock dynamics draws (0: derived from -seed)")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injection seed (with any -fault-*-every flag)")
	faultTransient := flag.Int("fault-transient-every", 0, "afflict ~every k-th destination with a transient-error window")
	faultDrop := flag.Int("fault-drop-every", 0, "afflict ~every k-th destination with a response-drop burst")
	faultPanic := flag.Int("fault-panic-every", 0, "afflict ~every k-th destination with an injected-panic window")
	liveMode := flag.Bool("live", false, "probe the real network over raw sockets instead of the simulator")
	liveDests := flag.String("live-dests", "", "comma-separated IPv4 destinations for -live")
	liveDestsFile := flag.String("live-dests-file", "", "file of IPv4 destinations for -live, one per line ('#' comments)")
	timeout := flag.Duration("timeout", 2*time.Second, "adaptive live-probe timeout cap (and the timeout before a destination has RTT samples)")
	timeoutFloor := flag.Duration("timeout-floor", 100*time.Millisecond, "adaptive live-probe timeout floor")
	retries := flag.Int("retries", 1, "re-sends per unanswered live probe")
	capturePath := flag.String("capture", "", "record every live probe and response to this pcap file (requires -live)")
	flag.Parse()

	if *capturePath != "" && !*liveMode {
		fmt.Fprintln(os.Stderr, "measured: -capture requires -live (the simulator is already replayable from its seed)")
		os.Exit(2)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigC := make(chan os.Signal, 2)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigC
		fmt.Fprintln(os.Stderr, "measured: signal received; draining (second signal forces exit)")
		cancel()
		<-sigC
		fmt.Fprintln(os.Stderr, "measured: second signal: forced immediate exit")
		os.Exit(130)
	}()

	cfg := daemon.Config{
		Period:            *period,
		Interval:          *interval,
		Workers:           *workers,
		QueueCap:          *queueCap,
		MaxWorkerRestarts: *maxRestarts,
		StallTimeout:      *stallTimeout,
		CheckpointPath:    *checkpoint,
		CheckpointEvery:   *checkpointEvery,
		FreshStart:        *fresh,
		Probe:             measure.ProbeConfig{PortSeed: *seed, Batch: *batch},
	}

	var pacer *tracer.Pacer
	if *rate > 0 {
		pacer = tracer.NewPacer(*rate, float64(*burst), nil, nil)
	}

	var asNames *asmap.Table
	var capSink *pcap.Capture
	var liveM *live.Mux
	if *liveMode {
		if *capturePath != "" {
			var err error
			if capSink, err = pcap.CreateCapture(*capturePath); err != nil {
				fmt.Fprintln(os.Stderr, "measured:", err)
				os.Exit(1)
			}
		}
		ds, m, err := liveMux(ctx, *liveDests, *liveDestsFile, *timeout, *timeoutFloor, *retries, pacer, *rate, capSink)
		if err != nil {
			fmt.Fprintln(os.Stderr, "measured:", err)
			os.Exit(2)
		}
		defer m.Close()
		liveM = m
		cfg.Dests = ds
		cfg.Transport = m.Transport()
		cfg.Probe.MinTTL = 1
		cfg.MuxHealth = m.Health
	} else {
		gc := topo.DefaultGenConfig()
		gc.Seed = *seed
		gc.Destinations = *dests
		if !*flips {
			gc.FlipPerProbe = 0
		}
		gc.Delay = *delay
		gc.Load = *load
		gc.Churn = *churn
		gc.DynamicsSeed = *dynamicsSeed
		sc := topo.Generate(gc)
		asNames = sc.AS
		cfg.Dests = sc.Dests
		cfg.RoundStart = sc.RoundStart
		var tp tracer.Transport = sc.Transport()
		if *faultTransient > 0 || *faultDrop > 0 || *faultPanic > 0 {
			tp = netsim.WrapFaults(tp, netsim.FaultPlan{
				Seed:           *faultSeed,
				TransientEvery: *faultTransient, TransientStart: 1, TransientLen: 40,
				DropEvery: *faultDrop, DropStart: 2, DropLen: 30,
				PanicEvery: *faultPanic, PanicStart: 3, PanicLen: 2,
			})
		}
		cfg.Transport = tp
		cfg.TransportState = probeCounters(sc.Nets)
		cfg.RestoreTransport = restoreProbeCounters(sc.Nets)
	}
	if pacer != nil {
		cfg.Transport = tracer.NewPacedTransport(cfg.Transport, pacer)
	}

	d, err := daemon.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "measured:", err)
		os.Exit(1)
	}
	if ok, at := d.Recovered(); ok {
		fmt.Fprintf(os.Stderr, "measured: recovered from %s at round %d\n", *checkpoint, at)
	}

	var srv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "measured:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "measured: listening on %v\n", ln.Addr())
		srv = &http.Server{Handler: d.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "measured: http:", err)
			}
		}()
	}

	runErr := run(ctx, d, *maxRounds, *interval)
	if srv != nil {
		// Close, not Shutdown: /events streams hold connections open
		// indefinitely and would stall a graceful shutdown forever.
		_ = srv.Close()
	}
	if capSink != nil {
		// The daemon has stopped probing; close the mux (idempotent — the
		// deferred Close becomes a no-op) so every record reaches the sink,
		// then install the capture here rather than in a defer: the
		// signalled exit paths below leave through os.Exit.
		_ = liveM.Close()
		if cerr := capSink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "measured: finalizing capture:", cerr)
		} else {
			fmt.Fprintf(os.Stderr, "measured: capture: %d record(s) written to %s\n", capSink.Count(), capSink.Path())
		}
	}
	measure.WriteReport(os.Stdout, d.Snapshot(), asNames)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "measured:", runErr)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		os.Exit(130) // interrupted by a signal
	}
}

// run drives the daemon: forever on the production loop, or for a bounded
// number of rounds with -max-rounds (the deterministic soak configuration).
func run(ctx context.Context, d *daemon.Daemon, maxRounds int, interval time.Duration) error {
	if maxRounds <= 0 {
		return d.Run(ctx)
	}
	for d.Round() < int64(maxRounds) && ctx.Err() == nil {
		d.Tick()
		if d.Round() >= int64(maxRounds) {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(interval):
		}
	}
	return d.Stop()
}

// probeCounters serializes each shard network's probe counter — the opaque
// transport cursor the daemon persists so a restarted soak replays the same
// per-packet schedules.
func probeCounters(nets []*netsim.Network) func() json.RawMessage {
	return func() json.RawMessage {
		counts := make([]int, len(nets))
		for i, n := range nets {
			counts[i] = n.ProbeCount()
		}
		b, err := json.Marshal(struct{ ProbeCounts []int }{counts})
		if err != nil {
			return nil
		}
		return b
	}
}

// restoreProbeCounters rewinds each shard network to the checkpointed probe
// counter during daemon recovery.
func restoreProbeCounters(nets []*netsim.Network) func(json.RawMessage) error {
	return func(raw json.RawMessage) error {
		if len(raw) == 0 {
			return nil
		}
		var st struct{ ProbeCounts []int }
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("checkpoint transport state: %w", err)
		}
		if len(st.ProbeCounts) != len(nets) {
			return fmt.Errorf("checkpoint transport state covers %d shards, daemon has %d", len(st.ProbeCounts), len(nets))
		}
		for i, n := range nets {
			n.SetProbeCount(st.ProbeCounts[i])
		}
		return nil
	}
}

// liveMux parses the live destination flags and opens the shared raw-socket
// mux every daemon worker's probes are multiplexed over, failing with a
// clear explanation when raw sockets are unavailable. When a pacer is
// installed the mux's pressure callback halves the aggregate probe rate per
// degradation level and restores it as clean read turns accumulate.
func liveMux(ctx context.Context, destList, destsFile string, timeout, timeoutFloor time.Duration, retries int, pacer *tracer.Pacer, rate float64, capSink *pcap.Capture) ([]netip.Addr, *live.Mux, error) {
	ds, err := liveDestinations(destList, destsFile)
	if err != nil {
		return nil, nil, err
	}
	src, err := live.LocalIPv4()
	if err != nil {
		return nil, nil, fmt.Errorf("cannot determine local IPv4 source: %w", err)
	}
	mc := live.MuxConfig{
		Source: src, Timeout: timeout, TimeoutFloor: timeoutFloor,
		Retries: retries, Context: ctx,
		OnPressure: func(h tracer.MuxHealth) {
			if pacer != nil {
				pacer.SetRate(rate / float64(uint64(1)<<h.DegradeShift))
			}
			fmt.Fprintf(os.Stderr, "measured: receive pressure: degrade=%d kernel-drops=%d events=%d\n",
				h.DegradeShift, h.KernelDrops, h.PressureEvents)
		},
	}
	if capSink != nil {
		mc.Capture = capSink
	}
	m, err := live.NewMux(mc)
	if err != nil {
		return nil, nil, fmt.Errorf("live probing unavailable: %w", err)
	}
	return ds, m, nil
}

// liveDestinations resolves the live destination list from whichever flag
// was given: the inline comma-separated list or the one-per-line file
// (live.ReadDestsFile's format: '#' comments, blank lines skipped,
// duplicates rejected). Exactly one source must be set.
func liveDestinations(destList, destsFile string) ([]netip.Addr, error) {
	switch {
	case destsFile != "" && destList != "":
		return nil, fmt.Errorf("-live-dests and -live-dests-file are mutually exclusive")
	case destsFile != "":
		return live.ReadDestsFile(destsFile)
	case destList == "":
		return nil, fmt.Errorf("-live requires -live-dests A.B.C.D[,...] or -live-dests-file FILE")
	}
	var ds []netip.Addr
	seen := make(map[netip.Addr]bool)
	for _, s := range strings.Split(destList, ",") {
		d, err := netip.ParseAddr(strings.TrimSpace(s))
		if err != nil || !d.Is4() {
			return nil, fmt.Errorf("-live-dests entry %q is not an IPv4 address", s)
		}
		if seen[d] {
			return nil, fmt.Errorf("-live-dests lists %v twice", d)
		}
		seen[d] = true
		ds = append(ds, d)
	}
	return ds, nil
}
