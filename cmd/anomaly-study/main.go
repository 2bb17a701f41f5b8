// Command anomaly-study reproduces the paper's Section 4 measurement
// campaign: paired classic and Paris traceroutes from one source toward
// every destination, over repeated rounds, followed by the loop/cycle/
// diamond statistics with paper-vs-measured comparison. The destinations are
// a generated Internet-like topology by default, the real network with
// -live, or a capture of an earlier live run with -replay; the campaign,
// its checkpoints and its report are the same in all three. The flags are
// described by -h and in the README.
//
// Exit codes (internal/cli): 0 the study completed (or stopped where
// -halt-after said); 1 a runtime failure — a trace error under -fail-fast,
// an unusable capture or checkpoint; 2 a bad flag combination or missing
// raw-socket privileges; 130 interrupted by SIGINT/SIGTERM, with the partial
// statistics printed and, under -checkpoint, a checkpoint to -resume from.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/asmap"
	"repro/internal/cli"
	"repro/internal/measure"
	"repro/internal/tracer"
)

// options is the parsed command line.
type options struct {
	topo cli.Topo
	live cli.Live

	rounds, workers  int
	batch, truth     bool
	failFast, resume bool
	checkpoint       string
	checkpointEvery  int
	statsJSON        string
	haltAfter        int
}

// openMux is (*cli.Live).OpenMux except in the re-executed tests, which
// answer the mux from a simulated network instead of raw sockets.
var openMux = (*cli.Live).OpenMux

// generate is (*cli.Topo).Generate except in the re-executed tests, which
// may arm the rare-cause gadgets a flag does not reach.
var generate = (*cli.Topo).Generate

func main() {
	var o options
	fs := flag.CommandLine
	o.topo.Register(fs, 500)
	fs.IntVar(&o.topo.Shards, "shards", 1, "independent network shards the topology is partitioned across")
	fs.BoolVar(&o.topo.Flips, "flips", true, "enable mid-trace path flips (disable for byte-reproducible resume)")
	fs.BoolVar(&o.topo.Paper, "paper", false, "use the paper-scale configuration (5,000 destinations x 556 rounds)")
	o.live.Register(fs, "live-dests", true)
	fs.IntVar(&o.rounds, "rounds", 25, "number of measurement rounds")
	fs.IntVar(&o.workers, "workers", 32, "parallel probing workers")
	fs.BoolVar(&o.batch, "batch", true, "submit each trace's TTL ladder as batched exchanges")
	fs.BoolVar(&o.truth, "truth", false, "print generator ground truth")
	fs.BoolVar(&o.failFast, "fail-fast", false, "abort the campaign on the first trace error instead of retrying and quarantining")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file for resumable campaigns")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 1, "write the checkpoint every N completed rounds")
	fs.BoolVar(&o.resume, "resume", false, "resume the campaign from -checkpoint instead of starting over")
	fs.StringVar(&o.statsJSON, "stats-json", "", "write the final statistics as canonical JSON to this file")
	fs.IntVar(&o.haltAfter, "halt-after", 0, "stop after N completed rounds (testing aid for checkpoint/resume)")
	flag.Parse()

	roundsSet := false
	fs.Visit(func(f *flag.Flag) { roundsSet = roundsSet || f.Name == "rounds" })
	if o.topo.Paper && !roundsSet {
		o.rounds = 556
	}
	cli.Exit(runStudy(&o))
}

// runStudy is the study in every mode. What differs between the simulator, -live
// and -replay is where the destinations and the workers' transport come
// from, which the switch settles; the campaign, its checkpoint, the halt,
// the report and the statistics file are the same code for all three.
func runStudy(o *options) (err error) {
	// A replay has no cursor a checkpoint could carry: the capture is
	// served from its start.
	if err := o.live.Validate(flag.CommandLine, "checkpoint", "resume"); err != nil {
		return err
	}
	if o.resume && o.checkpoint == "" {
		return cli.Usagef("-resume requires -checkpoint")
	}
	ctx := cli.SignalContext()

	cfg := measure.Config{
		Rounds:          o.rounds,
		Workers:         o.workers,
		PortSeed:        o.topo.Seed,
		Batch:           o.batch,
		Stream:          true,
		FailFast:        o.failFast,
		CheckpointPath:  o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
	}
	var (
		shared  tracer.Transport
		restore = func(json.RawMessage) error { return nil }
		finish  = func(*measure.Stats) {}
		asNames *asmap.Table
	)
	switch {
	case o.live.Replay != "":
		// The campaign shape — rounds, workers, -seed, -retries and the
		// destination order — must match the captured run's; the
		// capture's own first-seen order matches single-worker runs only.
		rt, dests, err := o.live.OpenReplay()
		if err != nil {
			return err
		}
		cfg.Dests, cfg.MinTTL = dests, 1
		// Replay errors are deterministic — a probe the capture does not
		// hold will be missing on every retry — so the fault-tolerant
		// retry/quarantine policy would only bury the divergence.
		cfg.FailFast = true
		shared = rt
		finish = func(*measure.Stats) { cli.WarnDiverged(rt) }
	case o.live.On:
		if cfg.Dests, err = o.live.Dests(); err != nil {
			return err
		}
		var m *cli.Mux
		if m, err = openMux(&o.live, ctx, nil); err != nil {
			return err
		}
		defer m.CloseInto(&err)
		cfg.MinTTL = 1
		// One Transport handle per worker, all onto the shared mux: the
		// whole campaign runs over a single raw socket pair.
		cfg.TransportFor = func(int) tracer.Transport { return m.Transport() }
		finish = func(st *measure.Stats) {
			h := m.Health()
			st.Robust.Mux = &h
		}
	default:
		sc, err := generate(&o.topo)
		if err != nil {
			return err
		}
		if o.truth {
			fmt.Printf("ground truth: %+v\n\n", sc.Truth)
		}
		cfg.Dests, cfg.ShardOf, cfg.RoundStart = sc.Dests, sc.ShardOf, sc.RoundStart
		cfg.TransportState = sc.TransportState
		shared, restore, asNames = sc.Transport(), sc.RestoreTransportState, sc.AS
	}

	halted := false
	if o.haltAfter > 0 {
		// -halt-after is the deterministic stand-in for a mid-study kill:
		// the round that would be one too many cancels the campaign before
		// it probes anything.
		var halt context.CancelFunc
		ctx, halt = context.WithCancel(ctx)
		defer halt()
		inner := cfg.RoundStart
		cfg.RoundStart = func(r int) {
			if r >= o.haltAfter {
				halted = true
				halt()
			}
			if inner != nil {
				inner(r)
			}
		}
	}

	camp, err := measure.NewCampaign(shared, cfg)
	if err != nil {
		return err
	}
	if o.resume {
		ck, err := measure.LoadCheckpoint(o.checkpoint)
		if err != nil {
			return err
		}
		if err := restore(ck.Transport); err != nil {
			return err
		}
		if err := camp.Resume(ck); err != nil {
			return err
		}
	}

	res, err := camp.RunContext(ctx)
	if err != nil && !(errors.Is(err, context.Canceled) && res != nil) {
		return err
	}
	finish(res.Stats)
	measure.WriteReport(os.Stdout, res.Stats, asNames)
	if err == nil {
		if o.statsJSON == "" {
			return nil
		}
		return writeStatsJSON(o.statsJSON, res.Stats)
	}
	// Stopped early, by -halt-after or a signal: the statistics above are
	// advisory; the checkpoint, when enabled, holds the resumable truth.
	if o.checkpoint != "" {
		cli.Logf("rerun with -resume to continue from %s", o.checkpoint)
	}
	if halted {
		return nil
	}
	return fmt.Errorf("interrupted: %w", err)
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
