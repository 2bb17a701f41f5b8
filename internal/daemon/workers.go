package daemon

import (
	"fmt"
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
// Whoever wins the resolution CAS finishes the job: it folds the outcome,
// updates the supervision counters and calls the round's WaitGroup Done, in
// that order. A worker whose resolution CAS fails knows the watchdog already
// discarded its job and handed the slot to a replacement — it exits without
// touching anything. A watchdog that discards a still-pending job knows no
// worker ever claimed it, so no replacement is spawned.
//
// Tick only returns once every dispatched job is Done, so the counters a
// test (or a checkpoint) reads at the Tick boundary are deterministic, not a
// race against a worker still settling.
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

// job is one dispatched trace, an element of its round's job slice. Tick
// writes every field but state before queueing it; wg is the round's.
type job struct {
	ds    *destSched
	round int64
	hints measure.PathHints
	state atomic.Int64
	wg    *sync.WaitGroup
}

// worker is one supervised pool goroutine. id names the slot; gen counts the
// panic restarts the slot has consumed. The goroutine owns one Prober (the
// scratch buffers are not concurrency-safe), finishes every job it wins and
// gives the routes back to that Prober, and exits on Stop, on being replaced
// after a stall, or — after a panic in a trace — into onWorkerPanic, which
// accounts for the death and restarts the slot.
func (d *Daemon) worker(id, gen int) {
	var cur *job
	var curRun int64
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if cur == nil {
			// Not from a trace (Fold in finish, say): no job is left
			// to fail, so the panic is a bug and is re-raised.
			panic(r)
		}
		if !cur.state.CompareAndSwap(curRun, jsDone) {
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
			pair, err := prober.MeasurePair(j.ds.dest, int(j.round), &hints)
			won := j.state.CompareAndSwap(run, jsDone)
			cur = nil
			if !won {
				// Discarded mid-run: the slot belongs to a replacement
				// worker now, so this goroutine exits with its late
				// result dropped on the floor.
				return
			}
			d.finish(j, &pair, err, hints)
			prober.Recycle(&pair)
			j.wg.Done()
		}
	}
}

// finish folds a resolved job's outcome into the accumulator and re-arms the
// destination's cadence: success every Period rounds, a Paris route new to
// the destination next round (immediate re-exploration), failure per the
// error budget. A route the destination has shown before — a per-packet
// balancer's draw, or a flip back to a known path — is load balancing, not
// a path change (DTRACK's rule), and waits its Period like any other pair.
//
// Route lifetime: the worker gives the pair's routes back to its Prober as
// soon as finish returns, so Fold is the last reader. It copies what the
// accumulator keeps; everything after it — cadence, events — works from the
// FoldResult (TestFinishDoesNotReadRoutesAfterFold poisons the routes there).
func (d *Daemon) finish(j *job, pair *measure.Pair, err error, hints measure.PathHints) {
	d.mu.Lock()
	ds, round := j.ds, j.round
	if err != nil {
		d.failLocked(ds, round)
		d.mu.Unlock()
		return
	}
	fr := d.acc.Fold(pair)
	if d.afterFold != nil {
		d.afterFold(pair)
	}
	ds.Succeeded(hints)
	changed := ds.Pairs > 0 && fr.NewParis
	ds.Pairs++
	if changed {
		ds.NextDue = round + 1
	} else {
		ds.NextDue = round + d.sched.period
	}
	d.mu.Unlock()
	if changed {
		d.events.publish(Event{Round: round, Type: EventRouteChange, Dest: ds.dest,
			Detail: "paris route new to this destination; re-exploring next round",
			Loops:  fr.Loops, Cycles: fr.Cycles})
		if fr.Loops+fr.Cycles > 0 {
			d.events.publish(Event{Round: round, Type: EventAnomaly, Dest: ds.dest,
				Detail: "anomalies on new route", Loops: fr.Loops, Cycles: fr.Cycles})
		}
	}
}

// discard is the watchdog's verdict on one job of a stalled round. A job a
// worker or a failure path already resolved is left alone; otherwise the job
// is abandoned: the pair fails, the destination is charged, and — when a
// worker was actually wedged on the trace — a replacement worker takes its
// slot immediately. The wedged goroutine exits on its own when its transport
// finally unblocks (its resolution CAS fails).
func (d *Daemon) discard(j *job) {
	for {
		v := j.state.Load()
		if p := jsPhase(v); p == jsDone || p == jsDiscarded {
			return
		}
		if j.state.CompareAndSwap(v, jsDiscarded) {
			d.mu.Lock()
			d.stalls++
			d.failLocked(j.ds, j.round)
			d.mu.Unlock()
			d.events.publish(Event{Round: j.round, Type: EventStall, Dest: j.ds.dest,
				Detail: "trace exceeded stall deadline; job abandoned"})
			if jsPhase(v) == jsRunning && !d.stopped.Load() {
				go d.worker(jsWid(v), jsGen(v))
			}
			j.wg.Done()
			return
		}
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
// transition — happens before the in-flight job folds as failed and is
// Done, so the Tick that observes the job's failure also observes the
// counters that explain it. The slot restarts after an exponential backoff
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
	d.mu.Lock()
	d.failLocked(j.ds, j.round)
	d.mu.Unlock()
	j.wg.Done()
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

// drainJobs empties the queue, failing every job still pending. The pool's
// death calls it so Tick resolves instead of waiting forever; it holds mu,
// so it and Tick's queueing serialize and a job is either drained here or
// failed inline by Tick. A stalled round calls it once every job is
// resolved, to clear out the ones discarded while queued.
func (d *Daemon) drainJobs() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		select {
		case j := <-d.jobs:
			// A job the watchdog discarded is left alone.
			if j.state.CompareAndSwap(jsPending, jsDone) {
				d.failLocked(j.ds, j.round)
				j.wg.Done()
			}
		default:
			return
		}
	}
}
