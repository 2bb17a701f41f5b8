// Package measure implements the paper's measurement methodology
// (Section 3): paired classic/Paris traceroutes from one source toward a
// destination list, run by parallel workers over repeated rounds, followed
// by the anomaly statistics of Section 4.
//
// # Concurrency model
//
// A campaign splits its destination list into shards by the plan (Block),
// the paper's contiguous 1/Workers slicing: a fresh campaign has
// Config.Workers shards and a resumed one its checkpoint's count, and
// worker w owns shards w, w+Workers, ..., so each destination belongs to
// exactly one shard and one worker for the whole campaign. Workers share the
// transport — which must be safe for concurrent use, as both netsim and the
// live transport are — and nothing else: the Prober (its two tracers,
// scratch buffers and route pool), retry state, and the statistics
// accumulators are all per-worker, per-shard or per-destination and owned
// by the one worker that probes them. Rounds are separated by a WaitGroup
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
// determinism contract), and so is every IP ID a router or host stamps,
// which two classification rules read. So the Stats — including the RTT
// aggregates, which fold as order-independent integer tallies — are
// byte-identical across every worker count, batch switch and
// halt-and-resume, on the default
// topology with every gadget armed (pinned by simtest's TestHouseInvariant,
// under -race).
//
// # Fold contract
//
// A campaign computes its statistics while it probes: each shard has one
// Accumulator, and its worker folds every pair it measures into it as the
// pair completes, before it measures the next. Accumulator.Fold is the one
// way a pair enters the statistics; no path analyzes retained pairs
// afterwards. Ownership does the synchronization — the shards are fixed for
// the campaign's lifetime, so all of a destination's pairs flow through the
// one worker that owns its shard, in round order, and no accumulator (nor
// any per-destination state inside it) is ever touched by two goroutines.
// The partials meet exactly once, in Merge after the last round, on the
// caller's goroutine (the per-round WaitGroup provides the happens-before
// edge). Config.Stream only decides what happens to a pair after its fold:
// its routes go back to the worker (Stream), or the pair is also kept in
// Results.Rounds.
//
// Inside an accumulator, interning exploits round-over-round route
// stability: each destination's distinct routes are keyed by
// tracer.Route.Fingerprint and verified, Route.Equal in place, against the
// accumulator's own interned copy — a pointer-free header over 8-byte hop
// cells — so a fingerprint collision can only cost speed, never
// correctness. Per-route work (loop/cycle detection, response tallies,
// diamond-graph contribution) is memoized on the interned route. Interning
// equality ignores per-exchange quantities (RTTs and response IP IDs, which
// differ every round even on a stable path), so what reads them is read off
// the folded pair: RTT tallies, and the classification of every classic
// loop and cycle, which each pair gets against its own classic route
// (anomaly.ClassifyLoopDetected and ClassifyCycleDetected, two of whose
// rules read IP IDs) beside its Paris-only loop count (anomaly.ParisOnly).
// A stable path without a loop or a cycle therefore costs no anomaly work
// per round, and campaign memory is O(destinations + unique routes) —
// independent of the round count — where retained results grow
// O(destinations × rounds). A
// destination's share is its interned routes' cells and headers, a few
// sorted slices and two diamond indexes of a few hundred bytes, each a
// sorted set of (head, tail, middle) triples (see stream.go's header for the
// reading and the test that pins it).
//
// # Reading an accumulator
//
// Merge and State read an accumulator without rebuilding it, so that a
// read costs what was folded since the last one, not the accumulator's
// size: the daemon reads its shards' accumulators under the locks their
// folds take, four times a second for /stats and at every checkpoint. Three views are
// kept current for that:
//
//   - Address sets (every responder, loop and cycle addresses, quarantined
//     destinations) keep an ascending view. An address first seen since the
//     last read waits in a short list; a read sorts that list and merges it
//     into a new view. Before the first read no list is kept, and that read
//     sorts the whole set, so a campaign read once, at its end, pays no more
//     than it did. Merge unions the accumulators' views in one walk, k at
//     once, with no map; State emits the views as they are.
//   - Destinations keep an ascending view the same way, which State walks,
//     appending each destination to the body in order.
//   - What Merge reads per destination is kept as running totals: the
//     destinations that showed a loop or a cycle, the signature spans, and
//     the diamond tallies (classic diamonds, the per-flow ones among them,
//     Paris diamonds). A diamond index is an insert-only set, so its size
//     moves exactly when it does: a destination whose graph grew is marked
//     dirty and listed, and the next read recounts the diamonds of only the
//     listed destinations, with a walk that allocates nothing
//     (anomaly.Graph.CountDiamonds).
//
// A read that merges new entries into a view makes a new one, which is how
// a merge of two ascending lists comes out; nothing outside the accumulator
// holds a view, since State copies what it reads into the body. The one
// thing State leaves for later is each destination's hop cells, which a
// fold never rewrites once stored: State encodes the rest under the
// daemon's lock and notes the cells, and Checkpoint.Encode streams them into
// the file after the lock is released. RestoreAccumulator decodes a body's ascending lists
// into the views and counts the diamonds, so the first read after a
// recovery is as cheap as any other. Reads change no statistic:
// TestReadsDoNotMoveStatistics holds an accumulator read after every round,
// and restored halfway, to one read once, byte for byte.
//
// # Route ownership
//
// One rule holds in both runtimes: the worker that traced a pair folds it
// at once and, unless the campaign retains its pairs, gives its routes
// back. A route belongs to that worker until it is folded; the accumulator
// keeps its own copy of anything it keeps. Concretely:
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
//   - Retained pairs are never given back. Without Config.Stream the
//     worker folds each pair and keeps it in Results.Rounds instead, where
//     its routes are the caller's for good.
//
// The poison suite (poison_test.go) scribbles over every route at the
// moment it is recycled and requires statistics and checkpoints to match
// the never-recycling Stream=false campaign's byte for byte.
//
// # Error policy
//
// A 556-round campaign on the real Internet meets failures a hermetic
// simulation never shows, so by default the campaign degrades instead of
// aborting. Each pair is measured once: a pair whose trace fails is
// recorded as an explicit Outcome Failed pair (no routes) and charges the
// destination's error budget once, as in the daemon. Nothing retries a
// failed pair — the live mux absorbs its own transient send errors, and a
// replay error recurs on every try. After three consecutive failed rounds
// the destination is quarantined and its remaining rounds are recorded as
// Skipped pairs without probing. One successful pair resets the budget. The budget lives in one place, DestRun
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
// rounds: the per-shard accumulator partials (interned routes as their
// hop cells, scalar tallies, signature spans — the memo and graph layers are
// rebuilt on load by replaying the interned routes through the same
// analysis code), the per-destination DestRun records (error budget and
// path hints), an opaque Config.TransportState payload, and the next round
// to run. NewCheckpoint builds that body, for the campaign and for the
// daemon, whose checkpoint adds its schedule section. Files are written
// atomically (temp file + rename), so a kill leaves
// either the previous or the new checkpoint, never a torn one. See the
// Checkpoint type for the format and compatibility contract (documented in
// docs/checkpoint.md); Resume goes through Checkpoint.Restore — the restore
// path the daemon shares — which validates a config digest (RunDigest) so a
// checkpoint can only continue the campaign shape that wrote it, and holds
// each body to its shard's block of the plan. A resumed streaming campaign
// keeps the checkpoint's shards at any Config.Workers, replays RoundStart
// for the completed rounds and produces statistics byte-identical to the
// uninterrupted run.
package measure
