// Package measure implements the paper's measurement methodology
// (Section 3): paired classic/Paris traceroutes from one source toward a
// destination list, run by parallel workers over repeated rounds, followed
// by the anomaly statistics of Section 4.
//
// # Concurrency model
//
// A campaign partitions its destination list across Config.Workers
// goroutines with a worker plan that is a pure function of the
// configuration: each destination belongs to exactly one worker (shard-
// affine when Config.ShardOf is set) for the whole campaign. Workers share
// the transport — which must be safe for concurrent use, as both netsim
// and the live transport are — and nothing else: the Prober (its two
// tracers, scratch buffers and route pool), retry state, and (when
// streaming) the statistics accumulator and its fold ring are all
// per-worker or per-destination and owned by the one worker that probes
// them. Rounds are separated by a WaitGroup barrier; RoundStart
// hooks, checkpoints, and the final Merge all run on the campaign
// goroutine between rounds, where every accumulator is quiescent.
//
// # Determinism contract
//
// Campaign statistics are a deterministic function of (topology seed,
// campaign config) whenever the transport's per-probe behaviour is a pure
// function of the probe bytes — netsim's schedule-free regime (per-flow
// balancing, no per-probe hooks; with or without the virtual-clock
// dynamics layer, whose draws are keyed by probe bytes and virtual time,
// never by schedule). Under that regime the Stats — including the RTT
// aggregates, which fold as order-independent integer tallies — are
// byte-identical across every worker count, shard count, batch switch,
// and fold granularity (pinned by TestCampaignWorkerInvariance and
// TestCampaignDynamicsInvariance, under -race).
//
// The default generated topology is not in that regime. Three of its
// sources depend on the schedule: mid-trace flips
// (topo.GenConfig.FlipPerProbe), which draw from a per-shard stream in
// probe-arrival order; per-packet balancing and probabilistic drops, which
// netsim seeds by the network's probe counter, reserved in arrival order;
// and routers' and hosts' IP-ID counters, which advance in arrival order and
// feed two classification rules. So today the invariant holds at one worker
// (a resumed run also needs FlipPerProbe zero, since the flip stream is not
// checkpointed) or on the schedule-free topology the invariance suites
// build; at 32 workers two runs of the default topology differ in report
// rows even with flips off. ROADMAP item 13 keys those draws by identity to
// close the gap.
//
// # Streaming contract
//
// With Config.Stream set, the campaign computes its statistics while it
// probes instead of materializing every Pair: each worker owns one
// Accumulator and folds every pair it measures as the pair completes —
// staged through a small per-worker ring that folds sixteen pairs
// at a time (deferring folds for map locality, never reordering them).
// Ownership does the synchronization — the worker plan is fixed
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
// implementation, pinned by TestCampaignStreamInvariance).
//
// # Route ownership
//
// A route belongs to the worker that traced it until it is folded; the
// accumulator keeps its own copy of anything it keeps. Concretely:
//
//   - Fold copies what it keeps. The first route seen with a fingerprint is
//     interned as its hop cells, packed into the destination's cell array at
//     exact length, and Fold never retains the caller's Pair or routes, so
//     they may be reused the moment it returns.
//   - The fold ring gives routes back. A streaming worker's ring recycles
//     both routes of a pair into the worker's Prober right after folding it
//     (Prober.Recycle); the worker's next traces refill those routes, so a
//     steady-state pair allocates nothing of its own.
//   - Retained Results never do. Without Config.Stream every route of
//     Results.Rounds is the caller's for good, and Analyze over them copies
//     what it interns like any other fold.
//   - The daemon never does. Its pairs cross from a pool worker to the
//     supervising goroutine that folds them, and a stalled worker can be
//     abandoned mid-trace with its Prober; carrying routes back would need
//     a lock or a channel the hot path does not otherwise have. It still
//     gets the reusable tracers, hint-sized routes and exact-size interned
//     cells through the same Prober and accumulator.
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
// statistics byte-identical to the uninterrupted run whenever the
// transport's dynamics are themselves replayable (see topo.Generate:
// FlipPerProbe must be zero) and the campaign runs one worker per
// shard-free run or any worker count with schedule-free topologies (the
// same conditions under which two plain runs are byte-identical).
package measure
