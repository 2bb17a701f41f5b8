package simtest_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/daemon"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pcap"
	"repro/internal/simtest"
	"repro/internal/topo"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// The house invariant, in one table: over each scenario, one reference run
// (one worker, unbatched, its pairs retained, over netsim)
// and a row per axis the statistics must not depend on. Every row renders
// to the reference's -stats-json bytes, and every row that retains its
// pairs measured every route Equal to the reference's. A new axis is one
// more row.

const (
	dests    = 50
	rounds   = 4
	portSeed = 42
)

// scenario is one topology the table runs, with the fault plan its netsim
// transport is wrapped in (the live rows, which answer from the network
// itself, do not run under one) and what its reference must contain for
// the rows to test anything.
type scenario struct {
	name   string
	gen    topo.GenConfig
	faults *netsim.FaultPlan
	holds  func(*measure.Stats) bool
}

func anomalies(s *measure.Stats) bool {
	return s.Loops.Instances > 0 && s.Cycles.Instances > 0 && s.Diamonds.Total > 0
}

var scenarios = []scenario{
	{name: "default", gen: simtest.Default(dests), holds: anomalies},
	{name: "dynamics", gen: simtest.Dynamics(dests), holds: func(s *measure.Stats) bool {
		// Virtual-clock RTTs, not netsim's static 500 µs per hop.
		return anomalies(s) && s.RTT.Samples > 0 && s.RTT.MinNs%500_000 != 0
	}},
	{name: "flips", gen: simtest.Flips(dests), holds: anomalies},
	{name: "gadgets", gen: simtest.Gadgets(dests), holds: func(s *measure.Stats) bool {
		return anomalies(s) && s.Loops.ByCause[anomaly.CauseZeroTTL] > 0
	}},
	{name: "free", gen: simtest.Free(dests), holds: func(s *measure.Stats) bool {
		return s.Loops.Instances > 0 && s.Diamonds.Total > 0
	}},
	{name: "blackholes", gen: simtest.Default(dests), faults: &netsim.FaultPlan{Seed: 11, BlackholeEvery: 5},
		holds: func(s *measure.Stats) bool { return anomalies(s) && s.Robust.Failed > 0 && s.Robust.Skipped > 0 }},
	// An error window every destination it afflicts recovers from: each
	// failed pair is charged once, whatever the shape that measured it.
	{name: "errors", gen: simtest.Default(dests), faults: &netsim.FaultPlan{Seed: 13, TransientEvery: 3, TransientStart: 5, TransientLen: 30},
		holds: func(s *measure.Stats) bool { return anomalies(s) && s.Robust.Failed > 0 }},
}

// shape is how a campaign row probes.
type shape struct {
	workers       int
	batch, stream bool
}

// outcome is what a row measured: its statistics and, if it kept them,
// its pairs.
type outcome struct {
	stats *measure.Stats
	pairs [][]measure.Pair
}

func noSleep(time.Duration) {}

// build generates a fresh copy of sc and its transport.
func (sc scenario) build() (*topo.Scenario, tracer.Transport) {
	s := topo.Generate(sc.gen)
	var tp tracer.Transport = s.Transport()
	if sc.faults != nil {
		tp = netsim.WrapFaults(tp, *sc.faults)
	}
	return s, tp
}

// config is the campaign every row runs, in the given shape, over s.
func config(s *topo.Scenario, sh shape) measure.Config {
	return measure.Config{
		Dests: s.Dests, Rounds: rounds, Workers: sh.workers, RoundStart: s.RoundStart,
		PortSeed: portSeed, Batch: sh.batch, Stream: sh.stream,
	}
}

// finish runs camp and returns what it measured.
func finish(t testing.TB, camp *measure.Campaign, err error) outcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	return outcome{stats: res.Stats, pairs: res.Rounds}
}

// campaign is one run of sc in shape sh over netsim.
func campaign(t *testing.T, sc scenario, sh shape) outcome {
	s, tp := sc.build()
	camp, err := measure.NewCampaign(tp, config(s, sh))
	return finish(t, camp, err)
}

// haltResume halts a checkpointing campaign as round k begins, then
// resumes it from the checkpoint over a fresh copy of the scenario.
func haltResume(t *testing.T, sc scenario, k int) outcome {
	sh := shape{workers: 4, batch: true, stream: true}
	ck := filepath.Join(t.TempDir(), "halt.ck")
	s, tp := sc.build()
	cfg := config(s, sh)
	cfg.CheckpointPath = ck
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.RoundStart = func(r int) {
		if r == k {
			cancel()
		}
		s.RoundStart(r)
	}
	camp, err := measure.NewCampaign(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.RunContext(ctx); (k < rounds) != errors.Is(err, context.Canceled) {
		t.Fatalf("halt at round %d: run returned %v", k, err)
	}
	ckp, err := measure.LoadCheckpoint(ck)
	if err != nil || ckp.NextRound != k {
		t.Fatalf("halting at round %d left no checkpoint that resumes there: %v", k, err)
	}
	s, tp = sc.build()
	cfg = config(s, sh)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "resumed.ck")
	camp, err = measure.NewCampaign(tp, cfg)
	if err == nil {
		err = camp.Resume(ckp)
	}
	return finish(t, camp, err)
}

// daemonRun ticks a daemon of the given workers over a fresh copy of sc.
func daemonRun(t *testing.T, sc scenario, workers int) outcome {
	s, tp := sc.build()
	return outcome{stats: daemonStats(t, s, tp, workers)}
}

// daemonStats ticks the daemon at period 1, every destination admitted, for
// the campaign's rounds over s: a campaign by another scheduler.
func daemonStats(t testing.TB, s *topo.Scenario, tp tracer.Transport, workers int) *measure.Stats {
	d, err := daemon.New(daemon.Config{
		Dests: s.Dests, Transport: tp, RoundStart: s.RoundStart,
		Probe:  measure.ProbeConfig{PortSeed: portSeed, Batch: true},
		Period: 1, Workers: workers, QueueCap: len(s.Dests),
		Watchdog: func(int64) <-chan time.Time { return nil }, Sleep: noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	for range rounds {
		d.Tick()
	}
	return d.Snapshot()
}

// muxRun runs an 8-worker campaign through one live.Mux over a SimConn
// replaying the scenario's network under sched, captured to path.
func muxRun(t *testing.T, sc scenario, sched live.SimSchedule, retries int, path string) outcome {
	s, _ := sc.build()
	capture, err := pcap.CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := live.NewMux(live.MuxConfig{
		Source: s.Net.Source(), Conn: &live.SimConn{Respond: simtest.Responder(s.Net), Sched: sched},
		Retries: retries, Capture: capture, Sleep: noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(s, shape{workers: 8, batch: true})
	cfg.TransportFor = func(int) tracer.Transport { return m.Transport() }
	camp, err := measure.NewCampaign(nil, cfg)
	out := finish(t, camp, err)
	if h := m.Health(); h.InFlight != 0 {
		t.Errorf("%d probes still in flight after the campaign", h.InFlight)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := capture.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayRun serves the capture at path to the same campaign. A capture
// without duplicates holds no junk.
func replayRun(t *testing.T, sc scenario, path string, retries int, dups bool) outcome {
	rt, err := replay.Open(path, replay.Config{Retries: retries})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sc.build()
	cfg := config(s, shape{workers: 8, batch: true})
	cfg.RoundStart = nil
	cfg.TransportFor = func(int) tracer.Transport { return rt }
	camp, err := measure.NewCampaign(nil, cfg)
	out := finish(t, camp, err)
	if l := rt.Leftover(); l != 0 {
		t.Errorf("replay left %d captured exchanges unserved", l)
	}
	if j := rt.Junk(); j != 0 && !dups {
		t.Errorf("%d junk records in a capture without duplicates", j)
	}
	return out
}

// withoutRTT drops the RTT tallies: the mux times exchanges on the wall
// clock, not on netsim's.
func withoutRTT(o outcome) outcome {
	s := *o.stats
	s.RTT = measure.RTTStats{}
	return outcome{&s, o.pairs}
}

func TestHouseInvariant(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref := campaign(t, sc, shape{workers: 1})
			if !sc.holds(ref.stats) {
				t.Fatalf("reference run is degenerate for this scenario: %s", simtest.JSON(ref.stats))
			}
			// rowIn holds what run measures to want's statistics and, if it
			// kept its pairs, to the reference's routes, as a subtest of
			// parent; row does so as a subtest of the scenario.
			rowIn := func(parent *testing.T, name string, want *measure.Stats, run func(t *testing.T) outcome) {
				parent.Run(name, func(t *testing.T) {
					got := run(t)
					if d := simtest.Diff(want, got.stats); d != "" {
						t.Errorf("statistics differ from the reference at %s", d)
					}
					for r := range got.pairs {
						for i, g := range got.pairs[r] {
							w := ref.pairs[r][i]
							if g.Dest != w.Dest || g.Outcome != w.Outcome || !g.Paris.Equal(w.Paris) || !g.Classic.Equal(w.Classic) {
								t.Fatalf("round %d dest %v: routes differ from the reference", r, w.Dest)
							}
						}
					}
				})
			}
			row := func(name string, want *measure.Stats, run func(t *testing.T) outcome) { rowIn(t, name, want, run) }
			for name, sh := range map[string]shape{
				"workers=8":               {workers: 8},
				"workers=32":              {workers: 32},
				"batch":                   {workers: 1, batch: true},
				"stream":                  {workers: 1, stream: true},
				"workers=32,batch,stream": {workers: 32, batch: true, stream: true},
			} {
				row(name, ref.stats, func(t *testing.T) outcome { return campaign(t, sc, sh) })
			}
			row("halt-mid", ref.stats, func(t *testing.T) outcome { return haltResume(t, sc, rounds/2) })
			row("halt-final", ref.stats, func(t *testing.T) outcome { return haltResume(t, sc, rounds) })
			// The daemon at one shard and at four: each worker slot owns
			// a shard of the destinations and folds into its accumulator.
			t.Run("daemon", func(t *testing.T) {
				for _, w := range []int{1, 4} {
					rowIn(t, fmt.Sprintf("workers=%d", w), ref.stats, func(t *testing.T) outcome { return daemonRun(t, sc, w) })
				}
			})
			if sc.faults != nil {
				return
			}
			for _, m := range []struct {
				name    string
				sched   live.SimSchedule
				retries int
			}{
				{"clean", live.SimSchedule{}, 0},
				{"reorder+dup", live.SimSchedule{Reorder: true, Dup: func(ord int, _ []byte) bool { return ord%3 == 0 }}, 1},
			} {
				var captured outcome
				path := filepath.Join(t.TempDir(), m.name+".pcap")
				row("mux/"+m.name, withoutRTT(ref).stats, func(t *testing.T) outcome {
					captured = muxRun(t, sc, m.sched, m.retries, path)
					return withoutRTT(captured)
				})
				if captured.stats != nil {
					row("replay/"+m.name, captured.stats, func(t *testing.T) outcome {
						return replayRun(t, sc, path, m.retries, m.sched.Dup != nil)
					})
				}
			}
		})
	}
}

// TestOneCheckpointBody: the campaign and the daemon at period 1 write one
// run body through one builder. Each runs at three workers for the
// campaign's rounds with a checkpoint after every round, and the two files
// must hold equal error budgets and path hints, byte-equal accumulator
// bodies and one round cursor. Only the digests differ (the campaign's
// hashes its rounds), and the daemon's file goes on with its schedule
// section, which is not read here.
func TestOneCheckpointBody(t *testing.T) {
	const workers = 3
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			s, tp := sc.build()
			cfg := config(s, shape{workers: workers, batch: true, stream: true})
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ck")
			camp, err := measure.NewCampaign(tp, cfg)
			finish(t, camp, err)
			want, err := measure.LoadCheckpoint(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}

			s, tp = sc.build()
			path := filepath.Join(t.TempDir(), "daemon.ck")
			d, err := daemon.New(daemon.Config{
				Dests: s.Dests, Transport: tp, RoundStart: s.RoundStart,
				Probe:  measure.ProbeConfig{PortSeed: portSeed, Batch: true},
				Period: 1, Workers: workers, QueueCap: len(s.Dests), CheckpointPath: path,
				Watchdog: func(int64) <-chan time.Time { return nil }, Sleep: noSleep,
			})
			if err != nil {
				t.Fatal(err)
			}
			for range rounds {
				d.Tick()
			}
			if err := d.Stop(); err != nil {
				t.Fatal(err)
			}
			got := runBody(t, path)

			if want.NextRound != rounds || got.NextRound != rounds {
				t.Errorf("round cursors: campaign %d, daemon %d, want %d", want.NextRound, got.NextRound, rounds)
			}
			if !reflect.DeepEqual(want.Dests, got.Dests) {
				t.Error("the daemon's error budgets and path hints differ from the campaign's")
			}
			if len(want.Workers) != workers || len(got.Workers) != workers {
				t.Fatalf("accumulator bodies: campaign %d, daemon %d, want %d", len(want.Workers), len(got.Workers), workers)
			}
			for w := range want.Workers {
				// A loaded body is its bytes: equal bodies are byte-equal.
				if !reflect.DeepEqual(want.Workers[w], got.Workers[w]) {
					t.Errorf("shard %d: the daemon's accumulator body differs from the campaign's", w)
				}
			}
		})
	}
}

// runBody reads the run body of the daemon checkpoint at path, the section
// it shares with a campaign's, and stops there.
func runBody(t *testing.T, path string) *measure.Checkpoint {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	errSchedule := errors.New("schedule section not read")
	ck := new(measure.Checkpoint)
	err = ckpt.Decode(file, ckpt.KindDaemon, measure.CheckpointVersion, func(d *ckpt.Decoder) {
		ck.Decode(d)
		d.Fail(errSchedule)
	})
	if !errors.Is(err, errSchedule) {
		t.Fatalf("daemon checkpoint: %v", err)
	}
	return ck
}

// BenchmarkDaemonVsCampaign runs one scenario through the campaign and
// through the daemon at period 1, each with one worker per processor over
// a fresh copy of the topology (generated outside the timings), and
// requires the two Stats to be byte-equal. daemon/campaign is the daemon's
// speed over the campaign's: the campaign's time over the daemon's, summed
// over the iterations. Compare at -cpu 2:
//
//	go test -run '^$' -bench DaemonVsCampaign -benchtime 10x -cpu 2 ./internal/simtest
func BenchmarkDaemonVsCampaign(b *testing.B) {
	sc := scenario{name: "default", gen: simtest.Default(2000)}
	workers := runtime.GOMAXPROCS(0)
	var campT, daemonT time.Duration
	for range b.N {
		s, tp := sc.build()
		start := time.Now()
		camp, err := measure.NewCampaign(tp, config(s, shape{workers: workers, batch: true, stream: true}))
		want := finish(b, camp, err).stats
		campT += time.Since(start)

		s, tp = sc.build()
		start = time.Now()
		got := daemonStats(b, s, tp, workers)
		daemonT += time.Since(start)
		if d := simtest.Diff(want, got); d != "" {
			b.Fatalf("the daemon's statistics differ from the campaign's at %s", d)
		}
	}
	b.ReportMetric(float64(campT)/float64(daemonT), "daemon/campaign")
}
