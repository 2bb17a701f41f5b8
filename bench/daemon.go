package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/measure"
	"repro/internal/topo"
	"repro/internal/tracer"
)

const (
	daemonPeriod          = 5
	daemonCheckpointEvery = 5
	// statsInterval is the /stats poller's open-loop schedule: 4 requests a
	// second from one goroutine, whatever the daemon is doing.
	statsInterval = 250 * time.Millisecond
)

// statsPoller issues GET /stats through the daemon's handler on a fixed
// schedule while ticks run. Each request is timed from when it was due, so a
// request that waited behind a stalled predecessor carries that wait.
type statsPoller struct {
	handler http.Handler
	rec     *recorder
	lane    *lane

	stop chan struct{}
	done sync.WaitGroup
	// busy is held for the length of each request, so that the live-heap
	// reading can keep requests out of its two collections: a request
	// between them would carry encoding/json's checkpoint-sized pooled
	// buffer over from one cycle to the next, or not, by its timing.
	busy sync.Mutex

	latencyMs, lateMs []float64
	failures          int
}

func startStatsPoller(h http.Handler, rec *recorder) *statsPoller {
	p := &statsPoller{handler: h, rec: rec, stop: make(chan struct{})}
	if rec != nil {
		p.lane = rec.newLane()
	}
	p.done.Add(1)
	go p.run()
	return p
}

func (p *statsPoller) run() {
	defer p.done.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for due := time.Now(); ; due = due.Add(statsInterval) {
		timer.Reset(time.Until(due))
		select {
		case <-p.stop:
			return
		case <-timer.C:
		}
		var id int64
		var start time.Time
		on := p.rec.enabled()
		if on {
			id, start = p.rec.begin()
		}
		p.busy.Lock()
		sent := time.Now()
		w := httptest.NewRecorder()
		p.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		p.busy.Unlock()
		p.latencyMs = append(p.latencyMs, ms(time.Since(due)))
		p.lateMs = append(p.lateMs, ms(sent.Sub(due)))
		if on {
			p.rec.end(p.lane, spanStats, -1, id, 0, start)
		}
		var s measure.Stats
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &s) != nil {
			p.failures++
		}
	}
}

// close stops the poller and waits for it; its slices are safe to read after.
func (p *statsPoller) close() {
	close(p.stop)
	p.done.Wait()
}

// daemonRun is one constructed daemon over the simulator.
type daemonRun struct {
	sc      *topo.Scenario
	cfg     daemon.Config
	d       *daemon.Daemon
	wrapper *tracedTransport
}

// newDaemonRun does what cmd/measured does before its run loop: generate the
// topology, build the daemon over its transport with checkpointing armed.
func newDaemonRun(c runConfig, rec *recorder) (*daemonRun, time.Duration, error) {
	genStart := time.Now()
	sc := topo.Generate(studyTopology(c))
	genTime := time.Since(genStart)
	r := &daemonRun{sc: sc}
	tp := sc.Transport()
	if rec != nil {
		// The pool's workers share one transport, so they share one wrapper.
		// Both of netsim's transports batch.
		r.wrapper = newTracedTransport(tp.(tracer.BatchTransport), rec, -1)
		tp = r.wrapper
	}
	r.cfg = daemon.Config{
		Dests:     sc.Dests,
		Transport: tp,
		Probe:     measure.ProbeConfig{PortSeed: c.seed, Batch: true},
		Period:    daemonPeriod,
		Workers:   c.procs,
		// Room for the whole list: every destination is due at tick 0 and
		// the stable ones again every Period ticks, and this workload is the
		// daemon's steady state, not its overload policy.
		QueueCap:         len(sc.Dests),
		StallTimeout:     -1,
		RoundStart:       sc.RoundStart,
		CheckpointPath:   c.path("daemon.ck"),
		CheckpointEvery:  daemonCheckpointEvery,
		TransportState:   probeCounters(sc.Nets),
		RestoreTransport: func(raw json.RawMessage) error { return restoreProbeCounters(sc.Nets, raw) },
		FreshStart:       true,
	}
	d, err := daemon.New(r.cfg)
	if err != nil {
		return nil, 0, err
	}
	r.d = d
	return r, genTime, nil
}

// folded is how many pairs a snapshot accounts for, whatever their outcome.
func folded(s *measure.Stats) int { return s.Routes + s.Robust.Failed + s.Robust.Skipped }

func runDaemon(c runConfig, measured int) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	var genMs []float64
	run, setupS, err := medianSetup(setupReps, func() (*daemonRun, error) {
		r, gen, err := newDaemonRun(c, rec)
		genMs = append(genMs, ms(gen))
		return r, err
	}, func(r *daemonRun) { r.d.Stop() })
	if err != nil {
		return nil, err
	}
	d := run.d

	clock := &roundClock{
		warm: warmupRounds, measured: measured, heapRound: 4 * daemonCheckpointEvery,
		probes: probeCounter(run.sc.Nets), rec: rec,
	}
	if rec != nil {
		clock.gauge = func() gauges { return readGauges([]*tracedTransport{run.wrapper}, nil) }
	}
	var poller *statsPoller
	var atWarm *measure.Stats
	clock.settle = func() uint64 {
		poller.busy.Lock()
		defer poller.busy.Unlock()
		return settledHeapBytes()
	}
	for tick := 0; tick < clock.rounds(); tick++ {
		if tick == warmupRounds {
			atWarm = d.Snapshot()
			poller = startStatsPoller(d.Handler(), rec)
		}
		clock.roundStart(tick)
		d.Tick()
	}
	clock.finish()
	poller.close()
	final := d.Snapshot()
	health, ready := d.Health(), d.Ready()
	if err := d.Stop(); err != nil {
		return nil, err
	}

	ticks := clock.completed()
	ph := clock.measuredPhase()
	pairs := folded(final) - folded(atWarm)
	shed := final.Robust.Shed - atWarm.Robust.Shed
	o.attempted += folded(final)
	o.failed += final.Robust.Failed + final.Robust.Skipped
	o.check("every due pair measured", final.Robust.Failed == 0 && final.Robust.Skipped == 0 && pairs > 0,
		"routes=%d failed=%d skipped=%d over %d ticks", final.Routes, final.Robust.Failed, final.Robust.Skipped, ticks)
	o.check("healthy and ready at the end", health.Status == "ok" && ready && health.WorkersDead == 0,
		"status=%s ready=%v workers alive=%d dead=%d", health.Status, ready, health.WorkersAlive, health.WorkersDead)
	o.check("no restarts, no shedding after warm-up", final.Robust.WorkerRestarts == 0 && shed == 0,
		"restarts=%d shed after warm-up=%d (during warm-up %d)", final.Robust.WorkerRestarts, shed, atWarm.Robust.Shed)
	o.check("/stats answered every poll", poller.failures == 0, "%d polls, %d failed", len(poller.latencyMs), poller.failures)

	recoverS, err := checkRecovery(c, o, run, ticks)
	if err != nil {
		return nil, err
	}

	o.e2e["setup_s"] = setupS
	clock.endToEnd(o, ph, pairs)
	// The daemon's round is one full period: Period consecutive ticks, in
	// which every destination comes due at least once — what a campaign
	// round is — and one checkpoint is written. Single ticks are of three
	// kinds (few due, all stable ones due, checkpoint) whose shares put a
	// tick percentile on the cliff between two of them.
	var periodMs []float64
	for i := 0; i+daemonPeriod <= len(ph.roundMs); i += daemonPeriod {
		sum := 0.0
		for _, t := range ph.roundMs[i : i+daemonPeriod] {
			sum += t
		}
		periodMs = append(periodMs, sum)
	}
	o.e2e["round_ms_p50"] = quantile(periodMs, 0.5)
	o.layer["proc.round_ms_p90"] = quantile(periodMs, 0.9)
	if !c.trace {
		return o, nil
	}

	tr := clock.traced()
	var probeTicks, ckptTicks []float64
	for i, t := range ph.roundMs {
		if (warmupRounds+i+1)%daemonCheckpointEvery == 0 {
			ckptTicks = append(ckptTicks, t)
		} else {
			probeTicks = append(probeTicks, t)
		}
	}
	o.layer["topo.generate_ms"] = median(genMs)
	o.layer["proc.warmup_s"] = clock.warmup().Seconds()
	o.layer["daemon.tick_probe_ms_p50"] = median(probeTicks)
	o.layer["daemon.tick_ckpt_ms_p50"] = median(ckptTicks)
	o.layer["daemon.due_per_tick"] = float64(pairs) / float64(ph.rounds)
	o.layer["daemon.shed"] = float64(shed)
	o.layer["daemon.stats_ms_p50"] = quantile(poller.latencyMs, 0.5)
	o.layer["daemon.stats_ms_p90"] = quantile(poller.latencyMs, 0.9)
	o.layer["daemon.stats_late_ms_max"] = quantile(poller.lateMs, 1)
	o.layer["daemon.recover_s"] = recoverS
	if st, err := os.Stat(run.cfg.CheckpointPath); err == nil {
		o.layer["daemon.ckpt_bytes"] = float64(st.Size())
	}
	// The daemon does not say how many pairs a tick folded; the traced
	// ticks' share of the probes stands in for their share of the pairs.
	tracedPairs := int(float64(pairs) * float64(tr.probes) / float64(ph.probes))
	return o, reportTraced(c, o, rec, tr, clock.reference(), clock.tracedSum, tracedPairs, "netsim")
}

// checkRecovery restarts a daemon on the final checkpoint, as after a kill,
// and checks it resumes at the last round. The time daemon.New takes to
// return recovered is what an operator waits; a traced run repeats it and
// reports the median. It also times Snapshot, the merge /stats runs under
// the daemon lock, on the recovered full-size state.
func checkRecovery(c runConfig, o *outcome, run *daemonRun, ticks int) (float64, error) {
	cfg := run.cfg
	cfg.FreshStart = false
	cfg.Transport = run.sc.Transport()
	reps := 1
	if c.trace {
		reps = recoverReps
	}
	var secs, snapMs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		d, err := daemon.New(cfg)
		if err != nil {
			return 0, fmt.Errorf("recovering from the final checkpoint: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		recovered, at := d.Recovered()
		snapStart := time.Now()
		d.Snapshot()
		snapMs = append(snapMs, ms(time.Since(snapStart)))
		if err := d.Stop(); err != nil {
			return 0, err
		}
		if i == 0 {
			o.check("recovers at the last round", recovered && at == int64(ticks), "recovered=%v at=%d ticks=%d", recovered, at, ticks)
		}
	}
	o.layer["daemon.snapshot_ms"] = median(snapMs)
	return median(secs), nil
}
