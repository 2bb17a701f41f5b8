package daemon

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/measure"
)

// Job lifecycle is a single atomic word so the watchdog-vs-worker race is
// decided by exactly one CAS:
//
//	pending ──claim──▶ running(wid,gen) ──CAS──▶ done       (worker: result, error, or panic)
//	   │                      │
//	   └──────────CAS──────────┴────────────────▶ discarded (watchdog)
//
// A worker whose resolution CAS fails knows the watchdog already discarded
// its job and handed the slot to a replacement — it exits without touching
// the supervision counters. A watchdog that discards a still-pending job
// knows no worker ever claimed it, so no replacement is spawned.
//
// Every supervision counter (panics, restarts, stalls, folds) is updated
// strictly before the job's done channel closes, and Tick only returns once
// every dispatched job's done closed — so the counters a test (or a
// checkpoint) reads at the Tick boundary are deterministic, not a race
// against supervision goroutines still settling.
const (
	jsPending   int64 = 0 // on the queue, unclaimed
	jsRunning   int64 = 1 // claimed; wid and gen are packed above the phase
	jsDone      int64 = 2 // resolved by a worker (result, error, or panic)
	jsDiscarded int64 = 3 // abandoned by the watchdog
)

// jsRun packs a worker's identity into its claim value.
func jsRun(wid, gen int) int64 { return jsRunning | int64(wid)<<8 | int64(gen)<<32 }

func jsPhase(v int64) int64 { return v & 0xff }
func jsWid(v int64) int     { return int((v >> 8) & 0xffffff) }
func jsGen(v int64) int     { return int(v >> 32) }

// job is one dispatched trace. done is closed exactly once, by whoever CASed
// the state to jsDone; every field below done is written before that close
// and read only after it.
type job struct {
	ds    *destSched
	dest  netip.Addr
	round int64
	hints measure.PathHints
	state atomic.Int64
	done  chan struct{}

	pair measure.Pair
	err  error
}

// worker is one supervised pool goroutine. id names the slot; gen counts the
// panic restarts the slot has consumed. The goroutine owns one Prober (the
// scratch buffers are not concurrency-safe) and exits on Stop, on being
// replaced after a stall, or — after a panic — into onWorkerPanic, which
// accounts for the death and restarts the slot.
func (d *Daemon) worker(id, gen int) {
	var cur *job
	var curRun int64
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if cur != nil && !cur.state.CompareAndSwap(curRun, jsDone) {
			// The watchdog discarded the job mid-run and a replacement
			// worker owns this slot; the panicked goroutine vanishes
			// without touching the supervision counters.
			return
		}
		d.onWorkerPanic(id, gen, r, cur)
	}()
	prober := measure.NewProber(d.tp, d.cfg.Probe)
	for {
		select {
		case <-d.stop:
			return
		case j := <-d.jobs:
			run := jsRun(id, gen)
			if !j.state.CompareAndSwap(jsPending, run) {
				// Discarded (or drained) while queued; nothing ran, the
				// slot stays healthy.
				continue
			}
			cur, curRun = j, run
			hints := j.hints
			pair, err := prober.MeasurePair(j.dest, int(j.round), &hints)
			if !j.state.CompareAndSwap(run, jsDone) {
				// Discarded mid-run: the slot belongs to a replacement
				// worker now, so this goroutine exits with its late
				// result dropped on the floor.
				return
			}
			j.pair, j.err, j.hints = pair, err, hints
			close(j.done)
			cur = nil
		}
	}
}

// supervise waits for one dispatched job to resolve or stall. The watchdog
// channel comes from the Watchdog seam when set (tests; a nil channel never
// fires), otherwise from a StallTimeout timer.
func (d *Daemon) supervise(j *job, wg *sync.WaitGroup) {
	defer wg.Done()
	var stallC <-chan time.Time
	if d.cfg.Watchdog != nil {
		stallC = d.cfg.Watchdog(j.dest)
	} else if d.cfg.StallTimeout > 0 {
		t := time.NewTimer(d.cfg.StallTimeout)
		defer t.Stop()
		stallC = t.C
	}
	select {
	case <-j.done:
		d.finish(j)
	case <-stallC:
		for {
			v := j.state.Load()
			if jsPhase(v) == jsDone {
				// The worker won the race; take the result.
				<-j.done
				d.finish(j)
				return
			}
			if j.state.CompareAndSwap(v, jsDiscarded) {
				d.onStall(j, v)
				return
			}
		}
	}
}

// finish folds a resolved job's outcome into the accumulator and re-arms the
// destination's cadence: success every Period rounds, a changed Paris route
// fingerprint next round (immediate re-exploration), failure per the error
// budget.
//
// Route lifetime: the pair crossed from its worker to this goroutine and the
// worker may since have been abandoned mid-trace, so the daemon never gives
// routes back to a Prober. Should that change, Fold is the last reader: it
// copies what the accumulator keeps, everything after it — cadence, events —
// works from the FoldResult, and the job's route pointers are cleared right
// there (TestFinishDoesNotReadRoutesAfterFold poisons them at that point).
func (d *Daemon) finish(j *job) {
	d.mu.Lock()
	ds := j.ds
	ds.inFlight = false
	round := j.round
	if j.err != nil {
		d.failLocked(ds, round)
		d.mu.Unlock()
		return
	}
	fr := d.acc.Fold(&j.pair)
	if d.afterFold != nil {
		d.afterFold(&j.pair)
	}
	j.pair.Paris, j.pair.Classic = nil, nil
	ds.Succeeded(j.hints)
	ds.Pairs++
	changed := ds.Seen && fr.Paris != ds.ParisFP
	ds.ParisFP, ds.ClassicFP = fr.Paris, fr.Classic
	ds.Seen = true
	if changed {
		ds.NextDue = round + 1
	} else {
		ds.NextDue = round + d.sched.period
	}
	d.mu.Unlock()
	if changed {
		d.events.publish(Event{Round: round, Type: EventRouteChange, Dest: j.dest,
			Detail: "paris route fingerprint changed; re-exploring next round",
			Loops:  fr.Loops, Cycles: fr.Cycles})
		if fr.Loops+fr.Cycles > 0 {
			d.events.publish(Event{Round: round, Type: EventAnomaly, Dest: j.dest,
				Detail: "anomalies on changed route", Loops: fr.Loops, Cycles: fr.Cycles})
		}
	}
}

// onStall records a watchdog-abandoned job: the pair fails, the destination
// is charged, and — when a worker was actually wedged on the trace — a
// replacement worker takes its slot immediately. The wedged goroutine exits
// on its own when its transport finally unblocks (its resolution CAS fails).
func (d *Daemon) onStall(j *job, prev int64) {
	d.mu.Lock()
	d.stalls++
	j.ds.inFlight = false
	d.failLocked(j.ds, j.round)
	d.mu.Unlock()
	d.events.publish(Event{Round: j.round, Type: EventStall, Dest: j.dest,
		Detail: "trace exceeded stall deadline; job abandoned"})
	if jsPhase(prev) == jsRunning && !d.stopped.Load() {
		go d.worker(jsWid(prev), jsGen(prev))
	}
}

// A panicked slot's k-th restart waits restartBackoff << (k-1), capped at
// restartBackoffMax.
const (
	restartBackoff    = 100 * time.Millisecond
	restartBackoffMax = 5 * time.Second
)

// onWorkerPanic supervises a panicked worker slot. All accounting — the
// panic tally, the restart pre-credit or the dead-slot/pool-death
// transition — happens before the in-flight job (if any) resolves, so the
// Tick that observes the job's failure also observes the counters that
// explain it. The slot restarts after an exponential backoff
// (restartBackoff << restarts, capped) until it exhausts MaxWorkerRestarts
// and stays dead; when the last slot dies, queued jobs drain as immediate
// failures and future dispatches fail inline, keeping Tick from hanging.
func (d *Daemon) onWorkerPanic(id, gen int, r any, j *job) {
	d.mu.Lock()
	d.panics++
	d.workersAlive--
	round := d.round
	dead := gen >= d.cfg.MaxWorkerRestarts
	if dead {
		d.deadWorkers++
		if d.workersAlive == 0 {
			d.poolDead = true
		}
	} else {
		// Pre-credit the restart: the replacement goroutine spawns after
		// the backoff, but the slot is committed to coming back now.
		d.restarts++
		d.workersAlive++
	}
	poolDead := d.poolDead
	d.mu.Unlock()
	d.events.publish(Event{Round: round, Type: EventWorkerPanic,
		Detail: fmt.Sprintf("worker %d (restart %d): %v", id, gen, r)})
	if dead {
		d.events.publish(Event{Round: round, Type: EventWorkerDead,
			Detail: fmt.Sprintf("worker %d dead after %d restarts", id, gen)})
	}
	if j != nil {
		j.err = fmt.Errorf("daemon: worker panic during trace to %v: %v", j.dest, r)
		close(j.done)
	}
	if dead {
		if poolDead {
			d.drainJobs()
		}
		return
	}
	backoff := restartBackoff << gen
	if backoff <= 0 || backoff > restartBackoffMax {
		backoff = restartBackoffMax
	}
	go func() {
		d.sleep(backoff)
		if d.stopped.Load() {
			return
		}
		d.events.publish(Event{Round: round, Type: EventWorkerRestart,
			Detail: fmt.Sprintf("worker %d restarted (restart %d)", id, gen+1)})
		d.worker(id, gen+1)
	}()
}

// drainJobs fails every queued job after the pool dies, so supervisors (and
// through them Tick) resolve instead of waiting forever.
func (d *Daemon) drainJobs() {
	for {
		select {
		case j := <-d.jobs:
			d.resolveFailed(j, fmt.Errorf("daemon: worker pool dead"))
		default:
			return
		}
	}
}

// resolveFailed resolves a never-run job as an error, unless a worker or
// the watchdog already owns it.
func (d *Daemon) resolveFailed(j *job, err error) {
	if j.state.CompareAndSwap(jsPending, jsDone) {
		j.err = err
		close(j.done)
	}
}
