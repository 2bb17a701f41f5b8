// Package daemon turns the one-shot measurement campaign into an always-on
// topology-monitoring service: a supervised scheduler that owns
// per-destination probing cadence, a worker pool that survives panics and
// wedged transports, overload shedding, an HTTP/JSON health/stats/event
// surface, and continuous checkpointing with automatic crash recovery.
//
// # Architecture
//
// The daemon advances in scheduler rounds. Tick runs exactly one round:
//
//	due        := every destination whose NextDue <= round (oldest first)
//	quarantine := folded as Skipped pairs, re-armed, never probed
//	shed       := if len(due) > QueueCap, the overflow is shed by a seeded
//	              lottery with aging (shedVictims) and re-armed for the
//	              next round; see docs/daemon.md, "Load shedding"
//	dispatch   := remaining jobs go to the worker pool; Tick waits until
//	              every job completes, sheds, or is stalled out
//
// The caller paces the rounds: cmd/measured calls Tick on a wall-clock
// interval, tests call it back to back, so the whole service — supervision,
// shedding, recovery — is exercised without a single sleep. Virtual-clock
// network dynamics (netsim.Dynamics) plug in through RoundStart exactly as
// in the campaign.
//
// # Cadence
//
// A destination is re-probed every Period rounds. When a completed pair's
// Paris route is new to the destination — not among the routes the
// accumulator has interned for it (measure.FoldResult.NewParis) — the
// destination is re-armed for the next round instead (immediate
// re-exploration) and a route-change event is published; anomalies observed
// on the pair ride along in the event. A route it has shown before is load
// balancing, not a path change (DTRACK's rule: Cunha et al., SIGCOMM 2011),
// so a destination behind a per-packet balancer, or a flip between known
// paths, waits its Period like a stable one.
//
// # Supervision
//
// Workers are long-lived goroutines, and per pair they do what a campaign
// worker does: trace, fold, recycle. A round's jobs live in one slice and
// Tick waits for them with one WaitGroup; nothing else is created per job.
// A panic inside a trace is recovered at the worker boundary: the in-flight
// job resolves as a Failed pair (charging the destination's error budget),
// the worker goroutine dies, and the slot restarts after an exponential
// backoff (100ms << restarts, capped at 5s). A slot that exhausts
// MaxWorkerRestarts stays dead; when every slot is dead the daemon degrades
// to failing jobs immediately and /healthz goes red. The watchdog bounds a
// round's latency with one StallTimeout timer, started when the round
// dispatches: when it fires, every job still unresolved is declared
// stalled — a queued one is dropped unclaimed, a running one's (eventual)
// result is discarded and a replacement worker takes the wedged one's
// slot — and the wedged goroutine exits on its own when the transport
// finally unblocks.
//
// # Statistics
//
// The destinations are split into contiguous shards, the campaign's worker
// plan, each with its own streaming measure.Accumulator and lock; worker
// slot w is first to run the jobs of shards w, w+Workers, ..., and takes
// another slot's jobs when its own queue is empty. The worker that measured
// a pair folds it into its destination's shard under that shard's lock
// alone and then gives its routes back to its own Prober. /stats takes the
// daemon mutex and every shard's lock in index order, so it serves a
// consistent mid-flight snapshot: a measure.Stats produced by the same
// Merge the campaign uses, over every shard, with the supervision counters
// stamped into Stats.Robust (Shed, WorkerRestarts, WatchdogStalls,
// DeadWorkers).
//
// # Recovery
//
// With CheckpointPath set the daemon checkpoints every CheckpointEvery
// completed rounds and on Stop, building the run body with the campaign's
// builder (measure.NewCheckpoint) under the daemon mutex alone at the round
// boundary, where no fold runs, and saving it on the atomic temp-file +
// rename path. It auto-recovers on startup: accumulator statistics, per-destination cadence and
// quarantine state, cumulative supervision counters, and the opaque
// transport payload (Config.TransportState) all survive a kill -9. A corrupt checkpoint is moved
// aside (".corrupt") and the daemon starts fresh rather than refusing to
// boot; a checkpoint for a different destination list or probing shape is
// a hard error.
package daemon
