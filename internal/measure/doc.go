// Package measure implements the paper's measurement methodology
// (Section 3): paired classic/Paris traceroutes from one source toward a
// destination list, run by parallel workers over repeated rounds, followed
// by the anomaly statistics of Section 4.
//
// # Concurrency model
//
// A campaign partitions its destination list across Config.Workers
// goroutines with a worker plan that is a pure function of the
// configuration, the paper's contiguous 1/Workers slicing: each destination
// belongs to exactly one worker for the whole campaign. Workers share the
// transport — which must be safe for concurrent use, as both netsim and the
// live transport are — and nothing else: the Prober (its two tracers,
// scratch buffers and route pool), retry state, and (when streaming) the
// statistics accumulator are all per-worker or per-destination and owned by
// the one worker that probes them. Rounds are separated by a WaitGroup
// barrier; RoundStart hooks, checkpoints, and the final Merge all run on
// the campaign goroutine between rounds, where every accumulator is
// quiescent.
//
// # Determinism contract
//
// Campaign statistics are a deterministic function of (topology seed,
// campaign config) over netsim: every draw the simulator makes — per-packet
// spreading, probabilistic drops, a round's mid-trace flip schedule, the
// virtual-clock dynamics — is keyed by (seed, virtual round, the probe's
// bytes or position), never by arrival order (see the netsim package's
// determinism contract). The one arrival-order observable left, the IP IDs
// routers and hosts stamp, feeds two classification rules only as deltas
// within one route under a gap bound concurrency cannot reach. So the Stats
// — including the RTT aggregates, which fold as order-independent integer
// tallies — are byte-identical across every worker count, batch switch
// and halt-and-resume, on the default
// topology with every gadget armed (pinned by simtest's TestHouseInvariant,
// under -race).
//
// # Streaming contract
//
// With Config.Stream set, the campaign computes its statistics while it
// probes instead of materializing every Pair: each worker owns one
// Accumulator and folds every pair it measures as the pair completes,
// before it measures the next. Ownership does the synchronization — the worker plan is fixed
// for the campaign's lifetime, so all of a destination's pairs flow
// through the one worker that owns the destination, in round order, and no
// accumulator (nor any per-destination state inside it) is ever touched by
// two goroutines. The partials meet exactly once, in Merge after the last
// round, on the caller's goroutine (the per-round WaitGroup provides the
// happens-before edge).
//
// Inside an accumulator, interning exploits round-over-round route
// stability: each destination's distinct routes are keyed by
// tracer.Route.Fingerprint and verified, Route.Equal in place, against the
// accumulator's own interned copy — a pointer-free header over 8-byte hop
// cells — so a fingerprint collision can only cost speed, never
// correctness. Per-route work (loop/cycle detection, response tallies,
// diamond-graph contribution) is memoized on the interned route;
// classic-vs-Paris classification is memoized per fingerprint pair.
// Interning equality ignores per-exchange quantities (RTTs and response IP
// IDs, which differ every round even on a stable path); RTT tallies fold
// per round from the current pair, and the two classification rules that
// consult IP IDs are gated on path-stable patterns and re-evaluated
// against each round's route, keeping the statistics byte-identical. A
// stable path therefore costs zero anomaly work per round, and campaign
// memory is O(destinations + unique routes) — independent of the round
// count — where materialized results grow O(destinations × rounds). A
// destination's share is its interned routes' cells and headers, a few
// sorted slices and two diamond indexes of a few hundred bytes, each a
// sorted set of (head, tail, middle) triples (see stream.go's header for the
// reading and the test that pins it).
//
// Streaming and materialize-then-Analyze produce byte-identical Stats (one
// implementation, pinned by simtest's TestHouseInvariant).
//
// # Route ownership
//
// One rule holds in both runtimes: the worker that traced a pair folds it
// and gives its routes back at once. A route belongs to that worker until
// it is folded; the accumulator keeps its own copy of anything it keeps.
// Concretely:
//
//   - Fold copies what it keeps. The first route seen with a fingerprint is
//     interned as its hop cells, packed into the destination's cell array at
//     exact length, and Fold never retains the caller's Pair or routes, so
//     they may be reused the moment it returns.
//   - The worker gives routes back. A streaming campaign worker, and the
//     daemon's pool worker, recycles both routes of a pair into its own
//     Prober (Prober.Recycle) right after folding it, before it measures
//     the next pair; its next traces refill those routes, so a
//     steady-state pair allocates nothing of its own. A daemon worker the
//     watchdog abandons mid-trace never folds, so it never recycles either.
//   - Retained Results never do. Without Config.Stream every route of
//     Results.Rounds is the caller's for good, and Analyze over them copies
//     what it interns like any other fold.
//
// The poison suite (poison_test.go) scribbles over every route at the
// moment it is recycled and requires statistics and checkpoints to match
// the never-recycling Stream=false + Analyze path byte for byte.
//
// # Error policy
//
// A 556-round campaign on the real Internet meets failures a hermetic
// simulation never shows, so by default the campaign degrades instead of
// aborting. Transports classify their failures with the tracer taxonomy
// (tracer.IsTransient); a pair whose trace fails transiently is tried up to
// three times with exponential, seeded-jitter backoff (100ms doubling,
// capped at 2s; waits through Config.Sleep so tests inject a clock). A pair
// still failing — or failing fatally — is recorded as an explicit Outcome
// Failed pair (no routes) and charges the destination's error budget; after
// three consecutive failed rounds the destination is quarantined and its
// remaining rounds are recorded as Skipped pairs without probing. One
// successful pair resets the budget. The budget lives in one place, DestRun
// (Succeeded, Failed, and the quarantineAfter constant beside them), which
// the campaign keeps per destination, the daemon embeds in its scheduler
// entry, and both checkpoint as it is — so the two runtimes cannot disagree
// on when a destination is quarantined. Failed and Skipped pairs (FailedPair,
// SkippedPair) fold into Stats.Robust (probed/failed/skipped/quarantined
// accounting) and never touch the anomaly statistics.
// Config.FailFast restores the historical semantics: the first error aborts
// the round and fails the campaign. Cancellation of the RunContext context
// is always fatal-but-graceful: workers stop at the next destination, the
// partial round is never checkpointed, and Run returns the context's error
// alongside the partial statistics.
//
// # Checkpointing
//
// With Config.CheckpointPath set on a streaming campaign, the campaign
// serializes its resumable state every Config.CheckpointEvery completed
// rounds: the per-worker accumulator partials (interned routes as their
// hop cells, scalar tallies, signature spans — the memo and graph layers are
// rebuilt on load by replaying the interned routes through the same
// analysis code), the per-destination DestRun records (error budget and
// path hints), an opaque Config.TransportState payload, and the next round
// to run. Files are written atomically (temp file + rename), so a kill leaves
// either the previous or the new checkpoint, never a torn one. See the
// Checkpoint type for the format and compatibility contract (documented in
// docs/checkpoint.md); Resume goes through Checkpoint.Restore — the restore
// path the daemon shares — which validates a config digest (RunDigest) so a
// checkpoint can only continue the campaign shape that wrote it. A resumed streaming
// campaign replays RoundStart for the completed rounds and produces
// statistics byte-identical to the uninterrupted run at any worker count.
package measure
