// Command measured is the always-on measurement service: the paper's paired
// classic/Paris probing run as a long-lived daemon (internal/daemon) instead
// of a one-shot campaign. It owns per-destination probing cadence (periodic
// re-probe, immediate re-exploration when a destination shows a Paris route
// it has never shown, not when a balancer draws another of its known ones),
// survives worker panics and wedged transports, sheds load explicitly when
// the due queue exceeds capacity, serves health/stats/events over HTTP, and
// checkpoints continuously so a kill -9 resumes where it left off. It probes
// a generated topology by default and the real network with -live. The flags
// are described by -h and in the README.
//
// Exit codes (internal/cli): 0 -max-rounds was reached; 1 a runtime failure
// — the daemon, its checkpoint, the listener or the capture; 2 a bad flag
// combination or missing raw-socket privileges; 130 stopped by SIGINT/
// SIGTERM: the first finishes the round, writes the final checkpoint and
// installs the capture, a second exits at once without draining.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/asmap"
	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/tracer"
)

func main() { cli.Exit(run()) }

func run() (err error) {
	var (
		tp cli.Topo
		lv cli.Live
	)
	tp.Register(flag.CommandLine, 200)
	flag.BoolVar(&tp.Flips, "flips", true, "enable mid-trace path flips")
	lv.Register(flag.CommandLine, "live-dests", false)
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address for /healthz /readyz /stats /events (empty: no HTTP)")
	period := flag.Int("period", 5, "re-probe cadence in scheduler rounds")
	interval := flag.Duration("interval", time.Second, "wall-clock pause between scheduler rounds")
	workers := flag.Int("workers", 4, "supervised probing workers")
	queueCap := flag.Int("queue-cap", 0, "per-round job admission bound; overflow is shed by seeded lottery with aging (0: 8*workers)")
	rate := flag.Float64("rate", 0, "aggregate probe rate cap in probes/second (0: unpaced)")
	burst := flag.Int("burst", 64, "probe pacer burst capacity")
	stallTimeout := flag.Duration("stall-timeout", 30*time.Second, "watchdog deadline from a round's dispatch, queue wait included; stalled traces are abandoned")
	maxRestarts := flag.Int("max-restarts", 8, "panic restarts per worker slot before it stays dead")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for continuous checkpointing and startup auto-recovery")
	checkpointEvery := flag.Int("checkpoint-every", 1, "write the checkpoint every N completed rounds")
	fresh := flag.Bool("fresh", false, "ignore an existing checkpoint instead of recovering from it")
	maxRounds := flag.Int("max-rounds", 0, "stop after N completed rounds (0: run until signalled)")
	batch := flag.Bool("batch", true, "submit each trace's TTL ladder as batched exchanges")
	faultSeed := flag.Int64("fault-seed", 0, "fault-injection seed (with any -fault-*-every flag)")
	faultTransient := flag.Int("fault-transient-every", 0, "afflict ~every k-th destination with an error window")
	faultDrop := flag.Int("fault-drop-every", 0, "afflict ~every k-th destination with a response-drop burst")
	faultPanic := flag.Int("fault-panic-every", 0, "afflict ~every k-th destination with an injected-panic window")
	flag.Parse()

	if err := lv.Validate(flag.CommandLine); err != nil {
		return err
	}
	if err := cli.AtLeast(flag.CommandLine, 1, "period", "workers", "checkpoint-every"); err != nil {
		return err
	}
	if err := cli.AtLeast(flag.CommandLine, 0, "queue-cap", "burst", "max-restarts", "max-rounds",
		"fault-transient-every", "fault-drop-every", "fault-panic-every"); err != nil {
		return err
	}
	ctx := cli.SignalContext()

	cfg := daemon.Config{
		Period:            *period,
		Workers:           *workers,
		QueueCap:          *queueCap,
		MaxWorkerRestarts: *maxRestarts,
		StallTimeout:      *stallTimeout,
		CheckpointPath:    *checkpoint,
		CheckpointEvery:   *checkpointEvery,
		FreshStart:        *fresh,
		Probe:             measure.ProbeConfig{PortSeed: tp.Seed, Batch: *batch},
	}

	// -rate caps the process's aggregate probe rate over whichever
	// transport is selected; under live receive pressure the mux halves it
	// per degradation level and restores it as the pressure clears.
	var pacer *tracer.Pacer
	if *rate > 0 {
		pacer = tracer.NewPacer(*rate, float64(*burst), nil, nil)
	}

	var asNames *asmap.Table
	if lv.On {
		if cfg.Dests, err = lv.Dests(); err != nil {
			return err
		}
		var m *cli.Mux
		m, err = lv.OpenMux(ctx, func(h tracer.MuxHealth) {
			if pacer != nil {
				pacer.SetRate(*rate / float64(uint64(1)<<h.DegradeShift))
			}
		})
		if err != nil {
			return err
		}
		defer m.CloseInto(&err)
		cfg.Transport = m.Transport()
		cfg.Probe.MinTTL = 1
		cfg.MuxHealth = m.Health
	} else {
		sc, err := tp.Generate()
		if err != nil {
			return err
		}
		asNames = sc.AS
		cfg.Dests = sc.Dests
		cfg.RoundStart = sc.RoundStart
		cfg.Transport = sc.Transport()
		if *faultTransient > 0 || *faultDrop > 0 || *faultPanic > 0 {
			// The hermetic soak configuration CI exercises the supervision
			// machinery with: seeded error-window, response-drop and
			// injected-panic schedules over the simulator.
			cfg.Transport = netsim.WrapFaults(cfg.Transport, netsim.FaultPlan{
				Seed:           *faultSeed,
				TransientEvery: *faultTransient, TransientStart: 1, TransientLen: 40,
				DropEvery: *faultDrop, DropStart: 2, DropLen: 30,
				PanicEvery: *faultPanic, PanicStart: 3, PanicLen: 2,
			})
		}
	}
	if pacer != nil {
		cfg.Transport = tracer.NewPacedTransport(cfg.Transport, pacer)
	}

	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	if ok, at := d.Recovered(); ok {
		cli.Logf("recovered from %s at round %d", *checkpoint, at)
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		cli.Logf("listening on %v", ln.Addr())
		srv := &http.Server{Handler: d.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				cli.Logf("http: %v", err)
			}
		}()
		// Close, not Shutdown: /events streams hold connections open
		// indefinitely and would stall a graceful shutdown forever.
		defer srv.Close()
	}

	err = drive(ctx, d, *maxRounds, *interval)
	measure.WriteReport(os.Stdout, d.Snapshot(), asNames)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("interrupted: %w", ctx.Err())
	}
	return err
}

// drive is the daemon's one loop: a round every interval until ctx is done
// or, with -max-rounds (the deterministic soak configuration), until the
// daemon's round count, which a recovery carries over, reaches it; then it
// stops the daemon, final checkpoint included.
func drive(ctx context.Context, d *daemon.Daemon, maxRounds int, interval time.Duration) error {
	done := func() bool {
		return ctx.Err() != nil || maxRounds > 0 && d.Round() >= int64(maxRounds)
	}
	for !done() {
		d.Tick()
		if done() {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(interval):
		}
	}
	return d.Stop()
}
