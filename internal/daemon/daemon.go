package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/measure"
	"repro/internal/tracer"
)

// Config shapes the daemon. Dests and Transport are required.
type Config struct {
	// Dests is the monitored destination list (duplicate-free).
	Dests []netip.Addr
	// Transport answers probes; it must be safe for concurrent use. Wrap
	// it in tracer.NewPacedTransport to cap the aggregate probe rate.
	Transport tracer.Transport
	// Probe is the probing shape every pair uses (measure.ProbeConfig
	// defaults apply).
	Probe measure.ProbeConfig

	// Period is the re-probe cadence in scheduler rounds; a destination
	// whose route changed is re-armed for the next round instead. Zero
	// selects 5.
	Period int
	// Interval is Run's wall-clock pause between rounds. Zero selects 1s.
	// Tests bypass it entirely by calling Tick directly.
	Interval time.Duration
	// Workers sizes the supervised pool. Zero selects 4.
	Workers int
	// QueueCap bounds the jobs admitted per round; due work beyond it is
	// shed by a random-early lottery with aging (see shedScore) and
	// re-armed for the next round, so persistent overload rotates the
	// victims instead of starving a fixed set. Zero selects 8*Workers.
	QueueCap int

	// MaxWorkerRestarts caps how many times one worker slot is restarted
	// after panics; beyond it the slot stays dead. Zero selects 8.
	MaxWorkerRestarts int
	// StallTimeout is the watchdog deadline per trace; a job that has
	// neither completed nor panicked by then is abandoned and its worker
	// replaced. Zero selects 30s; negative disables the watchdog.
	StallTimeout time.Duration
	// Watchdog overrides the stall deadline source: called once per
	// dispatched job, its channel firing declares the job stalled. Tests
	// inject deterministic watchdogs here (a nil channel never fires);
	// nil Watchdog uses a StallTimeout timer.
	Watchdog func(dest netip.Addr) <-chan time.Time

	// RoundStart, when set, runs at the top of every round with the round
	// number — the virtual-clock dynamics hook (topo.Scenario.RoundStart).
	// Recovery replays it for completed rounds, like campaign resume.
	RoundStart func(round int)

	// CheckpointPath enables continuous checkpointing and startup
	// auto-recovery. CheckpointEvery is the cadence in completed rounds
	// (zero selects 1).
	CheckpointPath  string
	CheckpointEvery int
	// TransportState and RestoreTransport persist and restore the opaque
	// transport cursor (e.g. netsim probe counters) across restarts.
	TransportState   func() json.RawMessage
	RestoreTransport func(json.RawMessage) error
	// FreshStart ignores an existing checkpoint instead of recovering.
	FreshStart bool

	// MuxHealth, when the transport probes through a shared live socket
	// mux, supplies its health snapshot; the daemon stamps it into every
	// served /stats (Stats.Robust.Mux). Nil leaves the field absent.
	MuxHealth func() tracer.MuxHealth

	// Sleep replaces time.Sleep for restart backoff; tests inject a no-op.
	Sleep func(time.Duration)
}

// eventBuffer is the /events replay ring's size: a subscriber resuming with
// ?since= further back than this many events has missed the difference.
const eventBuffer = 256

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 5
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8 * c.Workers
	}
	if c.MaxWorkerRestarts <= 0 {
		c.MaxWorkerRestarts = 8
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	return c
}

// Daemon is the always-on measurement service. Create with New, drive with
// Run (production) or Tick (tests and embedders), end with Stop.
type Daemon struct {
	cfg Config
	tp  tracer.Transport
	// digest is the measure.RunDigest of what the folded statistics depend
	// on — the destination list and the probing shape; a checkpoint under
	// another is refused. Cadence knobs (Period, QueueCap, worker count) are
	// deliberately excluded: they are retunable across restarts.
	digest uint64

	// mu guards everything the scheduler, the fold path, and the HTTP
	// snapshot share: the accumulator, the cadence table, the supervision
	// counters, and the round cursor. /stats snapshots under it, so a
	// served Stats is always a fold boundary — never a torn read.
	mu           sync.Mutex
	acc          *measure.Accumulator
	sched        *scheduler
	round        int64
	shed         int64
	restarts     int64
	stalls       int64
	panics       int64
	deadWorkers  int
	workersAlive int
	poolDead     bool
	lastCkErr    error
	recovered    bool
	recoveredAt  int64

	events *eventHub
	jobs   chan *job
	// afterFold, when a test sets it, sees each measured pair right after
	// its fold, under mu: the point past which finish reads no route.
	afterFold func(*measure.Pair)

	ready    atomic.Bool
	stopped  atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
}

// New validates the configuration, auto-recovers from CheckpointPath when a
// checkpoint exists (unless FreshStart), and starts the worker pool.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if err := measure.ValidateDests(cfg.Dests); err != nil {
		return nil, err
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("daemon: nil transport")
	}
	d := &Daemon{
		cfg:    cfg,
		tp:     cfg.Transport,
		digest: measure.RunDigest(cfg.Dests, cfg.Probe),
		acc:    measure.NewAccumulator(),
		sched:  newScheduler(cfg.Dests, int64(cfg.Period)),
		events: newEventHub(eventBuffer),
		jobs:   make(chan *job, cfg.QueueCap),
		stop:   make(chan struct{}),
	}
	if cfg.CheckpointPath != "" && !cfg.FreshStart {
		if err := d.recover(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	measure.ReplayRounds(cfg.RoundStart, int(d.round))
	d.workersAlive = cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		go d.worker(w, 0)
	}
	if d.recovered {
		d.events.publish(Event{Round: d.round, Type: EventRecovered,
			Detail: fmt.Sprintf("resumed at round %d", d.round)})
	}
	return d, nil
}

// Round returns the current scheduler round (completed rounds).
func (d *Daemon) Round() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.round
}

// Recovered reports whether startup resumed from a checkpoint, and from
// which round.
func (d *Daemon) Recovered() (bool, int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered, d.recoveredAt
}

// Tick runs exactly one scheduler round: due work is collected (oldest
// first), quarantined destinations fold as Skipped, overflow beyond
// QueueCap is shed, and the remainder is dispatched to the worker pool.
// Tick returns when every dispatched job has completed, panicked, or been
// stalled out by the watchdog, with the round's checkpoint (if due)
// written. Tick must not be called concurrently with itself or Stop — Run
// serializes it; tests call it from one goroutine.
func (d *Daemon) Tick() {
	d.mu.Lock()
	round := d.round
	d.mu.Unlock()
	if d.cfg.RoundStart != nil {
		d.cfg.RoundStart(int(round))
	}

	d.mu.Lock()
	due := d.sched.due(round)
	runnable := due[:0]
	for _, ds := range due {
		if ds.Quarantined {
			// Quarantined destinations keep their cadence as Skipped folds
			// — the same accounting a campaign round produces — without
			// consuming queue capacity.
			p := measure.SkippedPair(ds.dest, int(round))
			d.acc.Fold(&p)
			ds.NextDue = round + d.sched.period
			continue
		}
		runnable = append(runnable, ds)
	}
	var shedList []*destSched
	if len(runnable) > d.cfg.QueueCap {
		n := len(runnable) - d.cfg.QueueCap
		shedList = shedVictims(runnable, n, round)
		victim := make(map[*destSched]bool, n)
		for _, ds := range shedList {
			victim[ds] = true
			ds.ShedStreak++
			ds.NextDue = round + 1
		}
		kept := runnable[:0]
		for _, ds := range runnable {
			if !victim[ds] {
				kept = append(kept, ds)
			}
		}
		runnable = kept
		d.shed += int64(n)
	}
	poolDead := d.poolDead
	jobs := make([]*job, 0, len(runnable))
	for _, ds := range runnable {
		if poolDead {
			// Degraded terminal state: no worker can run anything, so
			// the job fails immediately instead of hanging the round.
			d.failLocked(ds, round)
			continue
		}
		ds.inFlight = true
		ds.ShedStreak = 0
		jobs = append(jobs, &job{ds: ds, dest: ds.dest, round: round, hints: ds.Hints, done: make(chan struct{})})
	}
	d.mu.Unlock()

	for _, ds := range shedList {
		d.events.publish(Event{Round: round, Type: EventShed, Dest: ds.dest,
			Detail: "queue over capacity; re-armed for next round"})
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		d.enqueue(j)
		go d.supervise(j, &wg)
	}
	wg.Wait()

	d.mu.Lock()
	d.round = round + 1
	ckDue := d.cfg.CheckpointPath != "" && int(d.round)%d.cfg.CheckpointEvery == 0
	var ck *Checkpoint
	if ckDue {
		ck = d.checkpointLocked()
	}
	d.mu.Unlock()
	if ck != nil {
		err := ck.Save(d.cfg.CheckpointPath)
		d.mu.Lock()
		d.lastCkErr = err
		d.mu.Unlock()
		if err != nil {
			d.events.publish(Event{Round: round, Type: EventCheckpoint,
				Detail: fmt.Sprintf("write failed: %v", err)})
		}
	}
	d.ready.Store(true)
}

// enqueue hands a job to the pool. The queue has QueueCap capacity and
// admission already bounded this round's jobs, so the send never blocks;
// the check-and-send runs under mu so a pool dying concurrently can drain
// deterministically (its drain and this send serialize).
func (d *Daemon) enqueue(j *job) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.poolDead {
		d.resolveFailed(j, fmt.Errorf("daemon: worker pool dead"))
		return
	}
	select {
	case d.jobs <- j:
	default:
		// Unreachable by construction (admission <= QueueCap and the
		// queue drains every round); resolve rather than deadlock.
		d.resolveFailed(j, fmt.Errorf("daemon: job queue full"))
	}
}

// failLocked folds one failed pair for ds — its trace erred, stalled or
// never found a live worker — charges the destination's error budget and
// re-arms its cadence. Caller holds mu.
func (d *Daemon) failLocked(ds *destSched, round int64) {
	p := measure.FailedPair(ds.dest, int(round))
	d.acc.Fold(&p)
	if ds.Failed() {
		// eventHub has its own mutex and never takes d.mu, so publishing
		// under d.mu is deadlock-free and keeps event order deterministic.
		d.events.publish(Event{Round: round, Type: EventQuarantine, Dest: ds.dest,
			Detail: fmt.Sprintf("%d consecutive failures", ds.ConsecFails)})
	}
	ds.NextDue = round + d.sched.period
}

// Run drives Tick on the configured wall-clock Interval until ctx is done,
// then stops the daemon (final checkpoint included).
func (d *Daemon) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return d.Stop()
		}
		d.Tick()
		select {
		case <-ctx.Done():
			return d.Stop()
		case <-time.After(d.cfg.Interval):
		}
	}
}

// Stop ends the daemon: workers drain at their next queue read, event
// subscribers are closed, and a final checkpoint is written when
// configured. Wedged (stalled) worker goroutines exit on their own when
// their transport unblocks. Safe to call more than once; must not race
// Tick (Run serializes them).
func (d *Daemon) Stop() error {
	var err error
	d.stopOnce.Do(func() {
		d.stopped.Store(true)
		d.ready.Store(false)
		close(d.stop)
		if d.cfg.CheckpointPath != "" {
			d.mu.Lock()
			ck := d.checkpointLocked()
			d.mu.Unlock()
			err = ck.Save(d.cfg.CheckpointPath)
		}
		d.events.closeAll()
	})
	return err
}

// Snapshot returns a consistent mid-flight statistics snapshot: the same
// measure.Stats a streaming campaign would produce over the pairs folded so
// far, with the daemon's supervision counters stamped into Stats.Robust.
// The merge runs under the daemon mutex, so the snapshot always lands on a
// fold boundary.
func (d *Daemon) Snapshot() *measure.Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *Daemon) snapshotLocked() *measure.Stats {
	s := measure.Merge(int(d.round), len(d.cfg.Dests), d.acc)
	s.Robust.Shed = int(d.shed)
	s.Robust.WorkerRestarts = int(d.restarts)
	s.Robust.WatchdogStalls = int(d.stalls)
	s.Robust.DeadWorkers = d.deadWorkers
	if d.cfg.MuxHealth != nil {
		h := d.cfg.MuxHealth()
		s.Robust.Mux = &h
	}
	return s
}

// Health summarizes liveness for /healthz.
type Health struct {
	// Status is "ok", "degraded" (dead worker slots or a failing
	// checkpoint path, but still measuring), or "down" (no alive workers
	// or stopped).
	Status string
	Round  int64
	// WorkersAlive and WorkersDead describe the supervised pool.
	WorkersAlive, WorkersDead int
	// CheckpointError carries the last checkpoint write failure, if any.
	CheckpointError string `json:",omitempty"`
}

// Health returns the current liveness summary.
func (d *Daemon) Health() Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := Health{Round: d.round, WorkersAlive: d.workersAlive, WorkersDead: d.deadWorkers}
	if d.lastCkErr != nil {
		h.CheckpointError = d.lastCkErr.Error()
	}
	switch {
	case d.stopped.Load() || d.poolDead || d.workersAlive == 0:
		h.Status = "down"
	case d.deadWorkers > 0 || d.lastCkErr != nil:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

// Ready reports whether the daemon has completed at least one round and is
// not stopping — the /readyz condition.
func (d *Daemon) Ready() bool { return d.ready.Load() && !d.stopped.Load() }

// sleep waits through the configured seam (tests) or for real.
func (d *Daemon) sleep(t time.Duration) {
	if d.cfg.Sleep != nil {
		d.cfg.Sleep(t)
		return
	}
	time.Sleep(t)
}
