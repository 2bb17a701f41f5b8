// Command anomaly-study reproduces the paper's Section 4 measurement
// campaign on a generated Internet-like topology: paired classic and Paris
// traceroutes from one source toward every destination, over repeated
// rounds, followed by the loop/cycle/diamond statistics with paper-vs-
// measured comparison.
//
// Usage:
//
//	anomaly-study [-dests N] [-rounds N] [-workers N] [-shards N] [-batch] [-stream]
//	              [-fold-every K] [-seed N] [-paper] [-truth] [-flips]
//	              [-delay S] [-load L] [-churn C] [-dynamics-seed N]
//	anomaly-study -checkpoint study.ck [-checkpoint-every N] [-resume] [-halt-after N]
//	              [-fail-fast] [-stats-json out.json]
//	anomaly-study -live {-live-dests A.B.C.D[,...] | -live-dests-file FILE}
//	              [-rounds N] [-workers N] [-batch] [-stream]
//	              [-timeout D] [-timeout-floor D] [-retries N]
//	anomaly-study -live ... -capture run.pcap
//	anomaly-study -replay run.pcap [-rounds N] [-workers N] [-seed N] [-retries N]
//	              [-live-dests ... | -live-dests-file FILE] [-stats-json out.json]
//
// -live swaps the simulator for the raw-socket layer (internal/tracer/
// live) and runs the identical paired-trace campaign against the real
// destinations in -live-dests or -live-dests-file (one destination per
// line, '#' comments and blank lines skipped, duplicates rejected); raw
// sockets need root or CAP_NET_RAW, and the tool exits with an explanation
// when they are unavailable. All workers share one mux — a single raw
// socket pair demultiplexes every worker's probes by quoted flow
// identifier — and per-destination RFC 6298 RTT estimators adapt each
// probe's deadline between -timeout-floor and -timeout. -retries is the
// re-send budget per unanswered probe; re-sends are spaced by the
// destination's adaptive, exponentially backed-off RTO. The report's
// robustness section carries the mux health counters (reopens, kernel
// drops, degradation level, RTO spread).
//
// -capture records every live probe and response — pre-deduplication, before
// retransmit folding — to a classic pcap file, installed atomically when the
// campaign ends (even when interrupted). -replay re-runs a captured campaign
// offline through the same flow-key attribution as the live demultiplexer
// and recomputes the statistics; the campaign flags must match the captured
// run, and divergence fails loudly. See docs/replay.md.
//
// -delay, -load, and -churn switch on the simulator's virtual-clock
// dynamics (netsim.Dynamics): seeded per-link propagation/bandwidth/
// queueing delays, background cross-traffic inflating queues, and
// scheduled route flaps, balancer weight churn, and link brownouts —
// all replayed deterministically from -dynamics-seed, with hop RTTs
// measured on the virtual clock (the report grows a "hop RTTs" line).
// Statistics stay byte-identical across -workers/-shards/-batch settings
// for a fixed seed, dynamics on or off.
//
// The campaign is fault tolerant and resumable. SIGINT/SIGTERM stop it at
// the next destination boundary, print the partial statistics, and — with
// -checkpoint set — leave a checkpoint a later -resume run continues from
// (a second SIGINT/SIGTERM during the drain forces an immediate exit 130),
// re-running only the rounds after the last checkpointed one. A simulator
// campaign resumed with the same flags reproduces the uninterrupted run's
// statistics exactly when run with -workers 1 -flips=false (the
// schedule-free configuration; see internal/measure's package doc).
// -halt-after N stops the campaign after N completed rounds — the
// deterministic stand-in for a mid-study kill that the CI resume check
// uses. -fail-fast restores the historical abort-on-first-error policy;
// the default policy retries transient trace failures with exponential
// backoff and quarantines destinations that keep failing (the report then
// carries a fault-tolerance line). -stats-json writes the final statistics
// as canonical JSON for byte-level comparison across runs.
//
// -paper selects the paper's full-scale study — 5,000 destinations and,
// unless -rounds is given explicitly, the complete 556 rounds. -shards
// partitions the topology across N independent simulated networks probed
// by shard-affine workers. -batch (default on) submits each trace's TTL
// ladder through the batched exchange path, amortizing per-probe overhead;
// -batch=false narrows the ladder's window to one TTL. -stream (default on)
// folds the statistics into per-worker accumulators as pairs complete, so
// memory stays O(destinations + unique routes) no matter how many rounds
// run; -stream=false retains every pair and analyzes at the end (the
// paper-scale study then holds ~5.6M routes in memory). Each destination's
// anomaly behaviour is determined by its own pod's gadgets, so neither the
// shard count, batching, nor streaming changes the Section 4 statistics
// (bit-identical on schedule-free topologies, equal in distribution
// otherwise) — only the scaling behaviour.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

func main() {
	dests := flag.Int("dests", 500, "number of destinations")
	rounds := flag.Int("rounds", 25, "number of measurement rounds")
	workers := flag.Int("workers", 32, "parallel probing workers")
	shards := flag.Int("shards", 1, "independent network shards the topology is partitioned across")
	batch := flag.Bool("batch", true, "submit each trace's TTL ladder as batched exchanges")
	stream := flag.Bool("stream", true, "fold statistics during the campaign (constant memory); false retains every pair")
	foldEvery := flag.Int("fold-every", 0, "streaming fold-batch size per worker (0: default; statistics identical for every K)")
	seed := flag.Int64("seed", 42, "topology and dynamics seed")
	paper := flag.Bool("paper", false, "use the paper-scale configuration (5,000 destinations x 556 rounds)")
	truth := flag.Bool("truth", false, "print generator ground truth")
	liveMode := flag.Bool("live", false, "probe the real network over raw sockets instead of the simulator")
	liveDests := flag.String("live-dests", "", "comma-separated IPv4 destinations for -live")
	liveDestsFile := flag.String("live-dests-file", "", "file of IPv4 destinations for -live, one per line ('#' comments)")
	timeout := flag.Duration("timeout", 2*time.Second, "adaptive live-probe timeout cap (and the timeout before a destination has RTT samples)")
	timeoutFloor := flag.Duration("timeout-floor", 100*time.Millisecond, "adaptive live-probe timeout floor")
	retries := flag.Int("retries", 1, "re-sends per unanswered live probe")
	capturePath := flag.String("capture", "", "record every live probe and response to this pcap file (requires -live)")
	replayPath := flag.String("replay", "", "re-run a captured campaign offline from this pcap file (excludes -live and -capture)")
	failFast := flag.Bool("fail-fast", false, "abort the campaign on the first trace error instead of retrying and quarantining")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for resumable campaigns (requires -stream)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "write the checkpoint every N completed rounds")
	resume := flag.Bool("resume", false, "resume the campaign from -checkpoint instead of starting over")
	statsJSON := flag.String("stats-json", "", "write the final statistics as canonical JSON to this file")
	haltAfter := flag.Int("halt-after", 0, "stop after N completed rounds (testing aid for checkpoint/resume)")
	flips := flag.Bool("flips", true, "enable mid-trace path flips (disable for byte-reproducible resume)")
	delay := flag.Float64("delay", 0, "virtual-clock per-link delay scale (1 = calibrated; 0 disables)")
	load := flag.Float64("load", 0, "virtual-clock background cross-traffic intensity in [0, 0.95]")
	churn := flag.Float64("churn", 0, "virtual-clock scheduled-dynamics rate (flaps/weight churn/brownouts) in [0, 1]")
	dynamicsSeed := flag.Int64("dynamics-seed", 0, "seed for the virtual-clock dynamics draws (0: derived from -seed)")
	flag.Parse()

	if *checkpoint != "" && !*stream {
		fmt.Fprintln(os.Stderr, "anomaly-study: -checkpoint requires -stream")
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "anomaly-study: -resume requires -checkpoint")
		os.Exit(2)
	}
	if *capturePath != "" && !*liveMode {
		fmt.Fprintln(os.Stderr, "anomaly-study: -capture requires -live (the simulator is already replayable from its seed)")
		os.Exit(2)
	}
	if *replayPath != "" && (*liveMode || *capturePath != "") {
		fmt.Fprintln(os.Stderr, "anomaly-study: -replay is an offline mode and excludes -live and -capture")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A second signal during the graceful drain forces an immediate exit:
	// signal.Notify fans each signal out to every registered channel, so
	// this channel sees the same deliveries NotifyContext consumes.
	forceC := make(chan os.Signal, 2)
	signal.Notify(forceC, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-forceC
		<-forceC
		fmt.Fprintln(os.Stderr, "anomaly-study: second signal: forced immediate exit")
		os.Exit(130)
	}()
	haltRequested := false
	haltCancel := context.CancelFunc(func() {})
	if *haltAfter > 0 {
		ctx, haltCancel = context.WithCancel(ctx)
		defer haltCancel()
	}

	if *replayPath != "" {
		if err := runReplay(*replayPath, *liveDests, *liveDestsFile, *rounds, *workers, *batch, *stream, *foldEvery, *seed,
			*timeout, *retries, *statsJSON); err != nil {
			// Not a usage error: the flags were fine, the capture (or its
			// match with them) was not.
			fmt.Fprintln(os.Stderr, "anomaly-study:", err)
			os.Exit(1)
		}
		return
	}

	if *liveMode {
		if err := runLive(ctx, *liveDests, *liveDestsFile, *rounds, *workers, *batch, *stream, *foldEvery, *seed,
			*timeout, *timeoutFloor, *retries, *failFast, *checkpoint, *checkpointEvery, *capturePath); err != nil {
			fmt.Fprintln(os.Stderr, "anomaly-study:", err)
			os.Exit(2)
		}
		return
	}

	roundsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rounds" {
			roundsSet = true
		}
	})

	cfg := topo.DefaultGenConfig()
	if *paper {
		cfg = topo.PaperScaleConfig()
		if !roundsSet {
			*rounds = 556
		}
	}
	cfg.Seed = *seed
	cfg.Shards = *shards
	if !*paper {
		cfg.Destinations = *dests
	}
	if !*flips {
		// Mid-trace flips draw from an unreplayable per-probe stream; a
		// flip-free topology is what makes a resumed run byte-reproducible.
		cfg.FlipPerProbe = 0
	}
	cfg.Delay = *delay
	cfg.Load = *load
	cfg.Churn = *churn
	cfg.DynamicsSeed = *dynamicsSeed

	sc := topo.Generate(cfg)
	if *truth {
		fmt.Printf("ground truth: %+v\n\n", sc.Truth)
	}

	roundStart := sc.RoundStart
	if *haltAfter > 0 {
		inner, halt := roundStart, *haltAfter
		roundStart = func(r int) {
			if r >= halt {
				haltRequested = true
				haltCancel()
			}
			inner(r)
		}
	}

	camp, err := measure.NewCampaign(sc.Transport(), measure.Config{
		Dests:           sc.Dests,
		Rounds:          *rounds,
		Workers:         *workers,
		RoundStart:      roundStart,
		PortSeed:        *seed,
		ShardOf:         sc.ShardOf,
		Batch:           *batch,
		Stream:          *stream,
		FoldEvery:       *foldEvery,
		FailFast:        *failFast,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		TransportState:  probeCounters(sc.Nets),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "anomaly-study:", err)
		os.Exit(1)
	}
	if *resume {
		ck, err := measure.LoadCheckpoint(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anomaly-study:", err)
			os.Exit(1)
		}
		if err := restoreProbeCounters(sc.Nets, ck.Transport); err != nil {
			fmt.Fprintln(os.Stderr, "anomaly-study:", err)
			os.Exit(1)
		}
		if err := camp.Resume(ck); err != nil {
			fmt.Fprintln(os.Stderr, "anomaly-study:", err)
			os.Exit(1)
		}
	}

	res, err := camp.RunContext(ctx)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) && res != nil:
		// Interrupted (signal or -halt-after): the partial statistics below
		// are advisory; the checkpoint, when enabled, holds the resumable
		// truth.
		fmt.Fprintln(os.Stderr, "anomaly-study: interrupted:", err)
		if *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "anomaly-study: rerun with -resume to continue from %s\n", *checkpoint)
		}
	default:
		fmt.Fprintln(os.Stderr, "anomaly-study:", err)
		os.Exit(1)
	}
	stats := res.Stats
	if stats == nil {
		stats = measure.Analyze(res)
	}
	measure.WriteReport(os.Stdout, stats, sc.AS)
	if err == nil && *statsJSON != "" {
		if werr := writeStatsJSON(*statsJSON, stats); werr != nil {
			fmt.Fprintln(os.Stderr, "anomaly-study:", werr)
			os.Exit(1)
		}
	}
	if err != nil && !haltRequested {
		os.Exit(130) // interrupted by a signal
	}
}

// probeCounters serializes each shard network's probe counter — the only
// transport cursor a resumed simulator campaign needs to replay per-packet
// schedules exactly.
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
// counter before the resumed campaign starts probing.
func restoreProbeCounters(nets []*netsim.Network, raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var st struct{ ProbeCounts []int }
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("checkpoint transport state: %w", err)
	}
	if len(st.ProbeCounts) != len(nets) {
		return fmt.Errorf("checkpoint transport state covers %d shards, campaign has %d", len(st.ProbeCounts), len(nets))
	}
	for i, n := range nets {
		n.SetProbeCount(st.ProbeCounts[i])
	}
	return nil
}

// writeStatsJSON writes the statistics as canonical JSON (sorted keys,
// stable indentation): two equal Stats values serialize to identical bytes,
// which is what the resume acceptance check compares.
func writeStatsJSON(path string, stats *measure.Stats) error {
	b, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runLive runs the same paired-trace campaign against the real network over
// one shared raw-socket mux: every worker holds its own Transport handle
// onto a single ICMP+TCP receive pair, and responses are attributed across
// workers by quoted flow identifier. It fails with a clear explanation when
// raw sockets are unavailable (root or CAP_NET_RAW required) so the study
// never half-runs without privileges. The context cancels both the campaign
// loop and the mux's in-flight deadline wheel, so an interrupt drains
// within one probe timeout; with -checkpoint set an interrupted live study
// resumes its round cursor and quarantine state (live responses themselves
// are not replayable, so resumed statistics are not byte-stable).
func runLive(ctx context.Context, destList, destsFile string, rounds, workers int, batch, stream bool, foldEvery int, seed int64, timeout, timeoutFloor time.Duration, retries int, failFast bool, checkpoint string, checkpointEvery int, capturePath string) (err error) {
	dsts, err := liveDestinations(destList, destsFile)
	if err != nil {
		return err
	}
	src, err := live.LocalIPv4()
	if err != nil {
		return fmt.Errorf("cannot determine local IPv4 source: %w", err)
	}
	mc := live.MuxConfig{
		Source: src, Timeout: timeout, TimeoutFloor: timeoutFloor,
		Retries: retries, Context: ctx,
		OnPressure: func(h tracer.MuxHealth) {
			fmt.Fprintf(os.Stderr, "anomaly-study: receive pressure: degrade=%d kernel-drops=%d events=%d\n",
				h.DegradeShift, h.KernelDrops, h.PressureEvents)
		},
	}
	var capSink *pcap.Capture
	if capturePath != "" {
		if capSink, err = pcap.CreateCapture(capturePath); err != nil {
			return err
		}
		mc.Capture = capSink
		// Registered before the mux's Close below, so it flushes after the
		// mux stops feeding the sink — an interrupted campaign still
		// installs a complete, readable capture.
		defer func() {
			if cerr := capSink.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("finalizing capture: %w", cerr)
				return
			}
			fmt.Fprintf(os.Stderr, "anomaly-study: capture: %d record(s) written to %s\n", capSink.Count(), capSink.Path())
		}()
	}
	m, err := live.NewMux(mc)
	if err != nil {
		return fmt.Errorf("live probing unavailable: %w", err)
	}
	defer m.Close()

	camp, err := measure.NewCampaign(nil, measure.Config{
		Dests:           dsts,
		Rounds:          rounds,
		Workers:         workers,
		MinTTL:          1,
		PortSeed:        seed,
		Batch:           batch,
		Stream:          stream,
		FoldEvery:       foldEvery,
		FailFast:        failFast,
		CheckpointPath:  checkpoint,
		CheckpointEvery: checkpointEvery,
		// One Transport handle per worker, all onto the shared mux: the
		// whole campaign runs over a single raw socket pair.
		TransportFor: func(int) tracer.Transport { return m.Transport() },
	})
	if err != nil {
		return err
	}
	res, err := camp.RunContext(ctx)
	if err != nil && !(errors.Is(err, context.Canceled) && res != nil) {
		return err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "anomaly-study: interrupted:", err)
	}
	stats := res.Stats
	if stats == nil {
		stats = measure.Analyze(res)
	}
	h := m.Health()
	stats.Robust.Mux = &h
	measure.WriteReport(os.Stdout, stats, nil)
	return nil
}

// runReplay re-runs a captured live campaign offline: the pcap's probes and
// responses stand in for the network (no sockets, no privileges), attributed
// by the same flow-key logic as the live demultiplexer, and the statistics
// are recomputed from the replayed routes. The campaign shape — rounds,
// workers, -seed (the port seed), -retries, and the destination order —
// must match the captured run; pass -live-dests/-live-dests-file to pin the
// destination order explicitly (defaults to the capture's first-seen order,
// which matches only single-worker campaigns). Divergence fails loudly.
func runReplay(path, destList, destsFile string, rounds, workers int, batch, stream bool, foldEvery int, seed int64, timeout time.Duration, retries int, statsJSON string) error {
	rt, err := replay.Open(path, replay.Config{Retries: retries, Timeout: timeout})
	if err != nil {
		return err
	}
	dsts := rt.Destinations()
	if destList != "" || destsFile != "" {
		if dsts, err = liveDestinations(destList, destsFile); err != nil {
			return err
		}
	}
	camp, err := measure.NewCampaign(nil, measure.Config{
		Dests:     dsts,
		Rounds:    rounds,
		Workers:   workers,
		MinTTL:    1,
		PortSeed:  seed,
		Batch:     batch,
		Stream:    stream,
		FoldEvery: foldEvery,
		// Replay errors are deterministic — a probe the capture does not
		// hold will be missing on every retry — so the fault-tolerant
		// retry/quarantine policy would only bury the divergence.
		FailFast:     true,
		TransportFor: func(int) tracer.Transport { return rt },
	})
	if err != nil {
		return err
	}
	res, err := camp.Run()
	if err != nil {
		return fmt.Errorf("replaying %s: %w", path, err)
	}
	stats := res.Stats
	if stats == nil {
		stats = measure.Analyze(res)
	}
	measure.WriteReport(os.Stdout, stats, nil)
	if l, j := rt.Leftover(), rt.Junk(); l != 0 || j != 0 {
		fmt.Fprintf(os.Stderr, "anomaly-study: replay: %d captured exchange(s) never served, %d junk record(s) — the replayed campaign diverges from the captured one\n", l, j)
	}
	if statsJSON != "" {
		if werr := writeStatsJSON(statsJSON, stats); werr != nil {
			return werr
		}
	}
	return nil
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
	var dsts []netip.Addr
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
		dsts = append(dsts, d)
	}
	return dsts, nil
}
