package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/simtest"
	"repro/internal/topo"
)

// The daemon tests run entirely on Tick — no wall-clock ticker, no sleeps.
// Topologies have no mid-trace flips and no per-packet balancing, so every
// destination's routes hold still from round to round, and every counter
// asserted below is pinned exactly.

// neverStall is the test watchdog: a nil channel never fires.
func neverStall(int64) <-chan time.Time { return nil }

// noSleep makes restart backoff instantaneous.
func noSleep(time.Duration) {}

// daemonPkg is what a daemon can have started or left blocked: goroutines
// with a frame in this package (simtest.Goroutines).
const daemonPkg = "repro/internal/daemon"

// freeTopo generates simtest's free topology, whose routes hold still from
// round to round unless churn is armed.
func freeTopo(t testing.TB, dests int, seed int64, churn float64) *topo.Scenario {
	t.Helper()
	gc := simtest.Free(dests)
	gc.Seed = seed
	if churn > 0 {
		gc.Delay = 1
		gc.Churn = churn
	}
	return topo.Generate(gc)
}

// testConfig is the baseline deterministic daemon configuration over sc.
func testConfig(sc *topo.Scenario) Config {
	return Config{
		Dests:      sc.Dests,
		Transport:  sc.Transport(),
		RoundStart: sc.RoundStart,
		Probe:      measure.ProbeConfig{PortSeed: 42, Batch: true},
		Period:     3,
		Workers:    3,
		Watchdog:   neverStall,
		Sleep:      noSleep,
	}
}

func mustNew(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// readFile is os.ReadFile for a test: a missing file fails it.
func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustLoad is loadCheckpoint for a test: a file that does not load fails it.
func mustLoad(t testing.TB, path string) *Checkpoint {
	t.Helper()
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// stop stops d; a failed final checkpoint fails the test.
func stop(t testing.TB, d *Daemon) {
	t.Helper()
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func tick(d *Daemon, n int) {
	for i := 0; i < n; i++ {
		d.Tick()
	}
}

func TestDaemonCadence(t *testing.T) {
	sc := freeTopo(t, 12, 7, 0)
	d := mustNew(t, testConfig(sc))
	defer d.Stop()

	if d.Ready() {
		t.Fatal("ready before the first round")
	}
	tick(d, 7) // period 3: rounds 0, 3, 6 probe all 12 destinations
	if !d.Ready() {
		t.Fatal("not ready after 7 rounds")
	}
	s := d.Snapshot()
	if s.Robust.Probed != 36 || s.Routes != 36 {
		t.Fatalf("probed %d routes %d, want 36", s.Robust.Probed, s.Routes)
	}
	if s.Robust.Failed != 0 || s.Robust.Skipped != 0 || s.Robust.Shed != 0 {
		t.Fatalf("unexpected degraded counters: %+v", s.Robust)
	}
	if s.Rounds != 7 || s.Dests != 12 {
		t.Fatalf("rounds %d dests %d, want 7/12", s.Rounds, s.Dests)
	}
	if h := d.Health(); h.Status != "ok" || h.WorkersAlive != 3 {
		t.Fatalf("health %+v, want ok with 3 workers", h)
	}
}

func TestDaemonShedRearm(t *testing.T) {
	sc := freeTopo(t, 10, 3, 0)
	cfg := testConfig(sc)
	cfg.QueueCap = 4
	d := mustNew(t, cfg)
	defer d.Stop()

	// Round 0: 10 due, 6 shed (lottery victims), 4 probed.
	// Round 1: the 6 re-armed are due, 2 shed, 4 probed.
	// Round 2: the 2 re-armed are due, probed. Steady state after.
	tick(d, 3)
	s := d.Snapshot()
	if s.Robust.Shed != 8 {
		t.Fatalf("shed %d after warm-up, want 8", s.Robust.Shed)
	}
	if s.Robust.Probed != 10 {
		t.Fatalf("probed %d after warm-up, want 10", s.Robust.Probed)
	}
	tick(d, 9)
	if s := d.Snapshot(); s.Robust.Shed != 8 {
		t.Fatalf("shed %d in steady state, want unchanged 8", s.Robust.Shed)
	}

	// Shed events were published, one per shed job.
	replay, _, cancel := d.events.subscribe(0)
	defer cancel()
	shedEvents := 0
	for _, e := range replay {
		if e.Type == EventShed {
			shedEvents++
		}
	}
	if shedEvents != 8 {
		t.Fatalf("%d shed events, want 8", shedEvents)
	}
}

// shedPairs runs one daemon under persistent overload and returns each
// destination's completed pair count.
func shedPairs(t *testing.T, rounds int) []int64 {
	t.Helper()
	sc := freeTopo(t, 10, 3, 0)
	cfg := testConfig(sc)
	cfg.Period = 1 // all 10 due every round
	cfg.QueueCap = 2
	d := mustNew(t, cfg)
	defer d.Stop()
	tick(d, rounds)
	pairs := make([]int64, len(sc.Dests))
	d.mu.Lock()
	for i, ds := range d.sched.dests {
		pairs[i] = ds.Pairs
	}
	d.mu.Unlock()
	return pairs
}

// TestShedScoreCapsStreak: a shed streak past 7 scores as 7 — the draw
// shifted down 56 bits — however large, instead of a shift past 64 bits or
// one overflowed negative.
func TestShedScoreCapsStreak(t *testing.T) {
	for _, round := range []int64{0, 1, 555} {
		capped := shedScore(round, &destSched{DestState: DestState{ShedStreak: 7}, idx: 3})
		for _, streak := range []int{8, 1 << 30, 1 << 60} {
			if got := shedScore(round, &destSched{DestState: DestState{ShedStreak: streak}, idx: 3}); got != capped {
				t.Errorf("round %d: streak %d scores %#x, want %#x (streak 7)", round, streak, got, capped)
			}
		}
	}
}

// TestDaemonShedFairness holds the daemon under permanent overload —
// every destination due every round, a queue admitting a fifth of them —
// and requires the shedding lottery's aging to keep every destination
// measuring. The old shed-head policy starved whichever destinations
// sorted first, forever; with random-early shed plus aging no destination
// may go unmeasured, and the schedule is reproducible.
func TestDaemonShedFairness(t *testing.T) {
	const rounds = 40
	pairs := shedPairs(t, rounds)
	for i, p := range pairs {
		if p == 0 {
			t.Errorf("destination %d never measured a pair across %d overloaded rounds", i, rounds)
		}
	}
	// Deterministic per round: an identical daemon over an identical
	// topology repeats the exact dispatch schedule.
	again := shedPairs(t, rounds)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatalf("destination %d: %d pairs vs %d on an identical daemon — lottery not deterministic",
				i, pairs[i], again[i])
		}
	}
}

func TestDaemonPanicSupervision(t *testing.T) {
	sc := freeTopo(t, 6, 5, 0)
	cfg := testConfig(sc)
	// Every destination's first exchange panics; retried rounds are clean.
	ft := netsim.WrapFaults(sc.Transport(), netsim.FaultPlan{
		Seed: 9, PanicEvery: 1, PanicStart: 0, PanicLen: 1,
	})
	cfg.Transport = ft
	cfg.Workers = 2
	cfg.MaxWorkerRestarts = 16
	d := mustNew(t, cfg)
	defer d.Stop()

	d.Tick()
	s := d.Snapshot()
	if s.Robust.Failed != 6 {
		t.Fatalf("failed %d in the panic round, want 6", s.Robust.Failed)
	}
	if s.Robust.WorkerRestarts != 6 {
		t.Fatalf("restarts %d, want 6 (one per injected panic)", s.Robust.WorkerRestarts)
	}
	if ft.InjectedPanics() != 6 {
		t.Fatalf("injected panics %d, want 6", ft.InjectedPanics())
	}
	if h := d.Health(); h.Status != "ok" || h.WorkersAlive != 2 || h.WorkersDead != 0 {
		t.Fatalf("health %+v, want ok with 2 alive", h)
	}

	// The failed destinations retry at their next due round with clean
	// ordinals and succeed.
	tick(d, 3)
	s = d.Snapshot()
	if s.Robust.Probed != 6 || s.Robust.Failed != 6 {
		t.Fatalf("probed %d failed %d after retry round, want 6/6", s.Robust.Probed, s.Robust.Failed)
	}
}

func TestDaemonPoolDeath(t *testing.T) {
	sc := freeTopo(t, 4, 13, 0)
	cfg := testConfig(sc)
	// Every exchange toward every destination panics, forever; one worker
	// slot with one restart. The slot dies on its second panic, the pool
	// is dead, and every subsequent round fails inline instead of hanging.
	cfg.Transport = netsim.WrapFaults(sc.Transport(), netsim.FaultPlan{
		Seed: 1, PanicEvery: 1, PanicStart: 0, PanicLen: 1 << 20,
	})
	cfg.Workers = 1
	cfg.MaxWorkerRestarts = 1
	d := mustNew(t, cfg)
	defer d.Stop()

	d.Tick() // must terminate: drained jobs fail, they do not hang
	s := d.Snapshot()
	if s.Robust.Failed != 4 {
		t.Fatalf("failed %d, want all 4", s.Robust.Failed)
	}
	if s.Robust.DeadWorkers != 1 || s.Robust.WorkerRestarts != 1 {
		t.Fatalf("dead %d restarts %d, want 1/1", s.Robust.DeadWorkers, s.Robust.WorkerRestarts)
	}
	if h := d.Health(); h.Status != "down" || h.WorkersAlive != 0 {
		t.Fatalf("health %+v, want down with 0 alive", h)
	}
	tick(d, 3) // inline failures keep the loop alive in degraded mode
	if s := d.Snapshot(); s.Robust.Failed != 8 {
		// Failed dests re-arm at round+period (3), so round 3 retries all 4.
		t.Fatalf("failed %d after degraded rounds, want 8", s.Robust.Failed)
	}
}

func TestDaemonQuarantine(t *testing.T) {
	sc := freeTopo(t, 8, 17, 0)
	cfg := testConfig(sc)
	// Roughly every 2nd destination is blackholed from its first exchange.
	plan := netsim.FaultPlan{Seed: 23, BlackholeEvery: 2, BlackholeStart: 0}
	ft := netsim.WrapFaults(sc.Transport(), plan)
	cfg.Transport = ft
	cfg.Period = 1
	d := mustNew(t, cfg)
	defer d.Stop()

	blackholed := 0
	for _, dst := range sc.Dests {
		if plan.ScheduleFor(dst).Blackhole {
			blackholed++
		}
	}
	if blackholed == 0 || blackholed == len(sc.Dests) {
		t.Fatalf("degenerate plan: %d/%d blackholed", blackholed, len(sc.Dests))
	}

	// Rounds 0 to 2 fail the blackholed dests (quarantined after the 3rd,
	// measure's error budget); every round after folds them as Skipped.
	tick(d, 5)
	s := d.Snapshot()
	healthy := len(sc.Dests) - blackholed
	if s.Robust.Probed != 5*healthy {
		t.Fatalf("probed %d, want %d", s.Robust.Probed, 5*healthy)
	}
	if s.Robust.Failed != 3*blackholed {
		t.Fatalf("failed %d, want %d", s.Robust.Failed, 3*blackholed)
	}
	if s.Robust.Skipped != 2*blackholed {
		t.Fatalf("skipped %d, want %d", s.Robust.Skipped, 2*blackholed)
	}
	if s.Robust.QuarantinedDests != blackholed {
		t.Fatalf("quarantined dests %d, want %d", s.Robust.QuarantinedDests, blackholed)
	}

	replay, _, cancel := d.events.subscribe(0)
	defer cancel()
	quarEvents := 0
	for _, e := range replay {
		if e.Type == EventQuarantine {
			quarEvents++
		}
	}
	if quarEvents != blackholed {
		t.Fatalf("%d quarantine events, want %d", quarEvents, blackholed)
	}

	// One error budget, two runtimes: at period 1 the daemon probes every
	// destination every round, so a campaign over the same faulty topology
	// must fail, quarantine and skip the same destinations after the same
	// number of pairs — both charge measure.DestRun, which holds the budget —
	// and meet as many injected errors, one batch per failed pair.
	sc2 := freeTopo(t, 8, 17, 0)
	ft2 := netsim.WrapFaults(sc2.Transport(), plan)
	camp, err := measure.NewCampaign(ft2, measure.Config{
		Dests: sc2.Dests, Rounds: 5, Workers: 3, RoundStart: sc2.RoundStart,
		PortSeed: 42, Batch: true, Stream: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats.Robust, s.Robust; got.Probed != want.Probed || got.Failed != want.Failed ||
		got.Skipped != want.Skipped || got.QuarantinedDests != want.QuarantinedDests {
		t.Fatalf("campaign and daemon charge the same faults differently:\ncampaign: %+v\ndaemon:   %+v", got, want)
	}
	if got, want := ft2.InjectedErrors(), ft.InjectedErrors(); got != want {
		t.Fatalf("campaign met %d injected errors, daemon %d", got, want)
	}
}

// TestDaemonWatchdogStall drives both discard paths under the one
// per-round watchdog: a job a wedged worker is running, and a job still
// queued behind it.
func TestDaemonWatchdogStall(t *testing.T) {
	plan := netsim.FaultPlan{Seed: 31, StallEvery: 3, StallStart: 0, StallLen: 1}
	var stalled, healthy []netip.Addr
	for _, dst := range freeTopo(t, 6, 19, 0).Dests {
		if plan.ScheduleFor(dst).Stall {
			stalled = append(stalled, dst)
		} else {
			healthy = append(healthy, dst)
		}
	}
	if len(stalled) == 0 || len(healthy) == 0 {
		t.Fatalf("degenerate plan: %d of 6 destinations stall", len(stalled))
	}

	for _, tc := range []struct {
		name    string
		dests   []netip.Addr
		workers int
		// wedged exchanges and folded pairs when the watchdog fires, and
		// the jobs it then discards.
		wedged, probed, discarded int
	}{
		// Wedged workers never block the rest: every healthy job is done
		// when the watchdog fires, and it discards exactly the running,
		// wedged ones.
		{"running", append(append([]netip.Addr{}, healthy...), stalled...), len(stalled) + 1,
			len(stalled), len(healthy), len(stalled)},
		// One worker, wedged on the first destination: the rest of the
		// round is still queued and is discarded unclaimed, so only the
		// wedged job is handed a replacement worker.
		{"pending", append(append([]netip.Addr{}, stalled...), healthy...), 1,
			1, 0, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := freeTopo(t, 6, 19, 0)
			ft := netsim.WrapFaults(sc.Transport(), plan)
			wd := make(chan time.Time)
			cfg := testConfig(sc)
			cfg.Dests = tc.dests
			cfg.Transport = ft
			cfg.Workers = tc.workers
			cfg.Watchdog = func(round int64) <-chan time.Time {
				if round == 0 {
					return wd
				}
				return nil
			}
			before := simtest.Goroutines(daemonPkg)
			d := mustNew(t, cfg)
			defer d.Stop()

			tickDone := make(chan struct{})
			go func() {
				d.Tick()
				close(tickDone)
			}()
			// Wait (without sleeping) until the wedged workers are parked
			// in the transport and everything else has folded, then fire
			// the round's watchdog once. A round that never gets there
			// fails after 10 s, unblocked first so that Stop returns.
			for deadline := time.Now().Add(10 * time.Second); ft.InjectedStalls() < tc.wedged || d.Snapshot().Robust.Probed < tc.probed; runtime.Gosched() {
				if time.Now().After(deadline) {
					stalls, probed := ft.InjectedStalls(), d.Snapshot().Robust.Probed
					ft.ReleaseStalls()
					select {
					case wd <- time.Time{}:
					case <-tickDone:
					}
					t.Fatalf("after 10 s the round has %d stalls injected and %d pairs probed, want %d and %d",
						stalls, probed, tc.wedged, tc.probed)
				}
			}
			wd <- time.Time{}
			<-tickDone

			s := d.Snapshot()
			if s.Robust.WatchdogStalls != tc.discarded || s.Robust.Failed != tc.discarded {
				t.Fatalf("stalls %d failed %d, want %d each", s.Robust.WatchdogStalls, s.Robust.Failed, tc.discarded)
			}
			if s.Robust.Probed != tc.probed || ft.InjectedStalls() != tc.wedged {
				t.Fatalf("probed %d wedged %d, want %d/%d", s.Robust.Probed, ft.InjectedStalls(), tc.probed, tc.wedged)
			}
			if h := d.Health(); h.Status != "ok" || h.WorkersAlive != tc.workers {
				t.Fatalf("health %+v, want ok with %d alive (replacements keep the pool whole)", h, tc.workers)
			}

			// Unwedge the parked goroutines; their late results are
			// discarded and every destination measures on round 3: the
			// healthy ones hit their period, the failed ones their
			// failure re-arm.
			ft.ReleaseStalls()
			tick(d, 3)
			if s := d.Snapshot(); s.Robust.Probed != tc.probed+6 || s.Robust.Failed != tc.discarded {
				t.Fatalf("probed %d failed %d after release, want %d/%d", s.Robust.Probed, s.Robust.Failed, tc.probed+6, tc.discarded)
			}
			// The released goroutines exit; one worker per slot is left.
			deadline := time.Now().Add(10 * time.Second)
			for {
				n := simtest.NewGoroutines(daemonPkg, before, tc.workers)
				if n <= tc.workers {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines started, want %d: a discard spawned a worker nobody replaced", n, tc.workers)
				}
			}
		})
	}
}

func TestDaemonCheckpointRecovery(t *testing.T) {
	const half = 4
	ckPath := filepath.Join(t.TempDir(), "daemon.ck")
	plan := netsim.FaultPlan{Seed: 23, BlackholeEvery: 3, BlackholeStart: 0}

	build := func(path string) (Config, *topo.Scenario) {
		sc := freeTopo(t, 10, 29, 0)
		cfg := testConfig(sc)
		cfg.Transport = netsim.WrapFaults(sc.Transport(), plan)
		cfg.Period = 1
		cfg.CheckpointPath = path
		net := sc.Net
		cfg.TransportState = func() json.RawMessage {
			b, _ := json.Marshal(struct{ Count int }{net.ProbeCount()})
			return b
		}
		cfg.RestoreTransport = func(raw json.RawMessage) error {
			var st struct{ Count int }
			if err := json.Unmarshal(raw, &st); err != nil {
				return err
			}
			net.SetProbeCount(st.Count)
			return nil
		}
		return cfg, sc
	}

	// First life: run half the rounds, then vanish without Stop — the
	// per-round checkpoint is all the second life gets, like a kill -9.
	cfgA, _ := build(ckPath)
	a := mustNew(t, cfgA)
	tick(a, half)
	atKill, _ := json.Marshal(a.Snapshot())
	// No a.Stop(): a's workers park on its stop channel and are collected
	// when the test binary exits, exactly like a killed process's threads.

	// Second life: auto-recover and finish.
	cfgB, _ := build(ckPath)
	b := mustNew(t, cfgB)
	defer b.Stop()
	if ok, at := b.Recovered(); !ok || at != half {
		t.Fatalf("recovered=%v at=%d, want true at %d", ok, at, half)
	}
	if b.Round() != half {
		t.Fatalf("resumed round %d, want %d", b.Round(), half)
	}
	if restored, _ := json.Marshal(b.Snapshot()); string(restored) != string(atKill) {
		t.Fatalf("restored stats diverge from the checkpoint:\nkill:     %s\nrestored: %s", atKill, restored)
	}
	tick(b, half)
	resumed, _ := json.Marshal(b.Snapshot())

	// Reference: the same daemon uninterrupted.
	cfgC, _ := build(filepath.Join(t.TempDir(), "ref.ck"))
	c := mustNew(t, cfgC)
	defer c.Stop()
	tick(c, 2*half)
	want, _ := json.Marshal(c.Snapshot())

	if string(resumed) != string(want) {
		t.Fatalf("kill-and-restart diverges from the uninterrupted run:\nresumed: %s\nwant:    %s", resumed, want)
	}
}

// TestDaemonCorruptCheckpointStartsFresh: whatever is wrong with the file at
// CheckpointPath — torn, foreign, flipped, or a version-1 JSON checkpoint
// from before the binary format (testdata/legacy-v1.ck.json, written by the
// last JSON build), a version-2 file from before the shared run body
// (testdata/toy-v2.ck, the last version-2 build's codec-test checkpoint) or
// a version-3 one from before hop cells (testdata/toy-v3.ck, likewise) or a
// version-4 one from before length-prefixed accumulator bodies
// (testdata/toy-v4.ck, likewise) or a version-5 one whose schedule still
// carries the Paris fingerprint (testdata/toy-v5.ck, likewise) or a
// version-6 one with the daemon's one accumulator where shards now stand
// (testdata/toy-v6.ck, likewise) — the daemon
// moves it to .corrupt, publishes a recovered event that names the cause,
// and comes back measuring from round zero.
func TestDaemonCorruptCheckpointStartsFresh(t *testing.T) {
	good := filepath.Join(t.TempDir(), "good.ck")
	sc := freeTopo(t, 4, 3, 0)
	cfg := testConfig(sc)
	cfg.CheckpointPath = good
	d := mustNew(t, cfg)
	d.Tick()
	stop(t, d)
	valid := readFile(t, good)
	legacy := readFile(t, filepath.Join("testdata", "legacy-v1.ck.json"))
	v2 := readFile(t, filepath.Join("testdata", "toy-v2.ck"))
	v3 := readFile(t, filepath.Join("testdata", "toy-v3.ck"))
	v4 := readFile(t, filepath.Join("testdata", "toy-v4.ck"))
	v5 := readFile(t, filepath.Join("testdata", "toy-v5.ck"))
	v6 := readFile(t, filepath.Join("testdata", "toy-v6.ck"))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 1

	for _, tc := range []struct {
		name  string
		data  []byte
		cause error
	}{
		{"torn", valid[:len(valid)/2], ckpt.ErrTruncated},
		{"foreign", []byte("not a checkpoint at all"), ckpt.ErrBadMagic},
		{"flipped bit", flipped, ckpt.ErrChecksum},
		{"legacy v1 JSON", legacy, ckpt.ErrLegacyJSON},
		{"version 2 binary", v2, ckpt.ErrVersion},
		{"version 3 binary", v3, ckpt.ErrVersion},
		{"version 4 binary", v4, ckpt.ErrVersion},
		{"version 5 binary", v5, ckpt.ErrVersion},
		{"version 6 binary", v6, ckpt.ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckPath := filepath.Join(t.TempDir(), "daemon.ck")
			if err := os.WriteFile(ckPath, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := loadCheckpoint(ckPath); !errors.Is(err, tc.cause) {
				t.Fatalf("loadCheckpoint: %v, want %v", err, tc.cause)
			}
			sc := freeTopo(t, 4, 3, 0)
			cfg := testConfig(sc)
			cfg.CheckpointPath = ckPath
			d := mustNew(t, cfg)
			defer d.Stop()
			if ok, _ := d.Recovered(); ok {
				t.Fatal("recovered from an unusable checkpoint")
			}
			if moved, err := os.ReadFile(ckPath + ".corrupt"); err != nil || !bytes.Equal(moved, tc.data) {
				t.Fatalf("unusable checkpoint not moved aside intact: %v", err)
			}
			replay, _, cancel := d.events.subscribe(0)
			cancel()
			if len(replay) != 1 || replay[0].Type != EventRecovered || !strings.Contains(replay[0].Detail, tc.cause.Error()) {
				t.Fatalf("want one recovered event naming %q, got %+v", tc.cause, replay)
			}
			d.Tick()
			if s := d.Snapshot(); d.Round() != 1 || s.Robust.Probed != 4 {
				t.Fatalf("fresh start at round %d probed %d, want round 1 probed 4", d.Round(), s.Robust.Probed)
			}
		})
	}
}

// goodCheckpoint is the checkpoint of a four-destination daemon ticked
// twice.
func goodCheckpoint(t testing.TB) string {
	t.Helper()
	good := filepath.Join(t.TempDir(), "good.ck")
	cfg := testConfig(freeTopo(t, 4, 3, 0))
	cfg.CheckpointPath = good
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tick(d, 2)
	stop(t, d)
	return good
}

// scheduleTampers are the schedule entries no daemon writes, each set on
// every destination. A negative shed streak due now, resumed, would reach
// the shed lottery's shift at the first Tick that sheds, a panic under d.mu.
var scheduleTampers = map[string]func(*DestState){
	"negative due round":  func(st *DestState) { st.NextDue = -1 },
	"negative pair count": func(st *DestState) { st.Pairs = -1 },
	"negative shed streak": func(st *DestState) {
		st.NextDue, st.ShedStreak = 0, -1
	},
}

// impossibleSchedules are the toy checkpoint with each scheduleTampers row
// applied, the fuzz seeds of the class.
func impossibleSchedules(t testing.TB) (files [][]byte) {
	for _, tamper := range scheduleTampers {
		files = append(files, toyWith(t, func(ck *Checkpoint) {
			for i := range ck.Sched {
				tamper(&ck.Sched[i])
			}
		}))
	}
	return files
}

// withTrailingByte is st as a file holds it with one more byte after it:
// st alone in a campaign frame, whose run body ends with the worker body
// (docs/checkpoint.md), read back with ckpt's primitives, and the longer
// body framed and loaded the same way.
func withTrailingByte(t *testing.T, st measure.AccState) measure.AccState {
	t.Helper()
	var file bytes.Buffer
	if err := ckpt.Encode(&file, ckpt.KindCampaign, 0, (&measure.Checkpoint{Workers: []measure.AccState{st}}).Encode); err != nil {
		t.Fatal(err)
	}
	var body []byte
	if err := ckpt.Decode(file.Bytes(), ckpt.KindCampaign, 0, func(d *ckpt.Decoder) {
		d.U64()
		d.Int()
		d.Bytes()
		d.Len(1)
		d.Len(1)
		body = d.Bytes()
	}); err != nil {
		t.Fatal(err)
	}
	file.Reset()
	if err := ckpt.Encode(&file, ckpt.KindCampaign, 0, func(e *ckpt.Encoder) {
		e.U64(0)
		e.Int(0)
		e.Bytes(nil)
		e.Len(0)
		e.Len(1)
		e.Bytes(append(body, 0))
	}); err != nil {
		t.Fatal(err)
	}
	ck := new(measure.Checkpoint)
	if err := ckpt.Decode(file.Bytes(), ckpt.KindCampaign, 0, ck.Decode); err != nil {
		t.Fatal(err)
	}
	return ck.Workers[0]
}

// TestDaemonImpossibleCheckpointStartsFresh: a frame that verifies around a
// body no daemon can have written — a negative round, a negative failure
// count, a schedule table of another length, a schedule entry with a
// negative due round, pair count or shed streak, an accumulator body its
// restore refuses, no shard at all, two shards that claim one destination,
// two shards whose bodies are swapped —
// is unusable too: moved aside, never resumed (a negative
// round would reach RoundStart, a negative shed streak a negative shift).
func TestDaemonImpossibleCheckpointStartsFresh(t *testing.T) {
	good := goodCheckpoint(t)
	tampers := map[string]func(*testing.T, *Checkpoint){
		"negative round":  func(_ *testing.T, ck *Checkpoint) { ck.NextRound = -1 },
		"negative budget": func(_ *testing.T, ck *Checkpoint) { ck.Dests[1].ConsecFails = -3 },
		"short schedule":  func(_ *testing.T, ck *Checkpoint) { ck.Sched = ck.Sched[:3] },
		"worker body with a trailing byte": func(t *testing.T, ck *Checkpoint) {
			ck.Workers[0] = withTrailingByte(t, ck.Workers[0])
		},
		"no shard":                         func(_ *testing.T, ck *Checkpoint) { ck.Workers = nil },
		"two shards claim one destination": func(_ *testing.T, ck *Checkpoint) { sharedShard(ck) },
		"swapped bodies":                   func(_ *testing.T, ck *Checkpoint) { swappedShards(ck) },
	}
	for name, tamper := range scheduleTampers {
		tampers[name] = func(_ *testing.T, ck *Checkpoint) {
			for i := range ck.Sched {
				tamper(&ck.Sched[i])
			}
		}
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			ck := mustLoad(t, good)
			tamper(t, ck)
			ckPath := filepath.Join(t.TempDir(), "daemon.ck")
			if err := ck.Save(ckPath); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(freeTopo(t, 4, 3, 0))
			cfg.CheckpointPath = ckPath
			cfg.RoundStart = func(r int) {
				if r < 0 {
					t.Errorf("RoundStart(%d)", r)
				}
			}
			d := mustNew(t, cfg)
			defer d.Stop()
			if ok, _ := d.Recovered(); ok || d.Round() != 0 {
				t.Fatalf("resumed an impossible checkpoint at round %d", d.Round())
			}
			if _, err := os.Stat(ckPath + ".corrupt"); err != nil {
				t.Fatalf("impossible checkpoint not moved aside: %v", err)
			}
		})
	}
}

// TestDaemonRecoversUnderSpelledOutDefaults: the digest covers the probing
// the daemon does, not how its configuration spells it — a restart that
// writes the default MinTTL out recovers the checkpoint written under the
// zero value.
func TestDaemonRecoversUnderSpelledOutDefaults(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "daemon.ck")
	cfg := testConfig(freeTopo(t, 4, 3, 0))
	cfg.Probe = measure.ProbeConfig{}
	cfg.CheckpointPath = ckPath
	d := mustNew(t, cfg)
	tick(d, 3)
	stop(t, d)

	cfg2 := testConfig(freeTopo(t, 4, 3, 0))
	cfg2.Probe = measure.ProbeConfig{MinTTL: 2}
	cfg2.CheckpointPath = ckPath
	d2, err := New(cfg2)
	if err != nil {
		t.Fatalf("restart with the defaults spelled out: %v", err)
	}
	defer d2.Stop()
	if ok, at := d2.Recovered(); !ok || at != 3 {
		t.Fatalf("recovered=%v at=%d, want true at 3", ok, at)
	}
}

func TestDaemonCheckpointDigestMismatch(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "daemon.ck")
	sc := freeTopo(t, 4, 3, 0)
	cfg := testConfig(sc)
	cfg.CheckpointPath = ckPath
	d := mustNew(t, cfg)
	d.Tick()
	stop(t, d)

	// A different destination list must be refused, not silently merged.
	sc2 := freeTopo(t, 5, 3, 0)
	cfg2 := testConfig(sc2)
	cfg2.CheckpointPath = ckPath
	if _, err := New(cfg2); err == nil {
		t.Fatal("New accepted a checkpoint for a different destination list")
	}

	// FreshStart overrides the refusal.
	cfg2.FreshStart = true
	d2 := mustNew(t, cfg2)
	d2.Stop()
}

func TestDaemonStopWritesFinalCheckpoint(t *testing.T) {
	ckPath := filepath.Join(t.TempDir(), "daemon.ck")
	sc := freeTopo(t, 4, 3, 0)
	cfg := testConfig(sc)
	cfg.CheckpointPath = ckPath
	cfg.CheckpointEvery = 1000 // per-round checkpoints never fire
	d := mustNew(t, cfg)
	tick(d, 2)
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint written before Stop despite CheckpointEvery: %v", err)
	}
	stop(t, d)
	ck, err := loadCheckpoint(ckPath)
	if err != nil || ck == nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if ck.NextRound != 2 {
		t.Fatalf("final checkpoint at round %d, want 2", ck.NextRound)
	}
}

// TestCheckpointFailureEvent: a checkpoint write that fails publishes one
// checkpoint event per due tick and shows in Health; one that succeeds
// publishes nothing (a success event would renumber every later event).
func TestCheckpointFailureEvent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dir    func(t *testing.T) string
		failed bool
	}{
		{"missing directory", func(t *testing.T) string { return filepath.Join(t.TempDir(), "missing") }, true},
		{"writable", func(t *testing.T) string { return t.TempDir() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(freeTopo(t, 4, 3, 0))
			cfg.CheckpointPath = filepath.Join(tc.dir(t), "daemon.ck")
			cfg.CheckpointEvery = 2
			d := mustNew(t, cfg)
			defer d.Stop()
			for round := 1; round <= 6; round++ {
				d.Tick()
				replay, _, cancel := d.events.subscribe(0)
				cancel()
				got := 0
				for _, e := range replay {
					if e.Type == EventCheckpoint {
						got++
					}
				}
				want := 0
				if tc.failed {
					want = round / cfg.CheckpointEvery
				}
				if got != want {
					t.Fatalf("after round %d: %d checkpoint events, want %d", round, got, want)
				}
			}
			if h := d.Health(); (h.CheckpointError != "") != tc.failed || (h.Status == "degraded") != tc.failed {
				t.Fatalf("health %+v, checkpoint failing: %v", h, tc.failed)
			}
		})
	}
}
