package measure

import (
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"repro/internal/keyhash"
	"repro/internal/tracer"
)

// Config mirrors the paper's measurement setup.
type Config struct {
	// Dests is the destination list (the paper: 5,000 pingable IPv4
	// addresses in random order).
	Dests []netip.Addr
	// Rounds is the number of consecutive measurement rounds (the paper
	// completed 556).
	Rounds int
	// Workers is the number of parallel probing processes (the paper
	// launches 32, each probing 1/32 of the list).
	Workers int
	// MinTTL skips the local network (the paper sets 2).
	MinTTL int
	// MaxTTL bounds traces (the paper: no trace extends beyond 39 hops).
	MaxTTL int
	// MaxConsecutiveStars halts a trace (the paper: 8).
	MaxConsecutiveStars int
	// RoundStart, if set, is invoked before each round with the round
	// number (routing dynamics injection).
	RoundStart func(round int)
	// PortSeed derives the per-destination Paris flow identifiers — the
	// paper picks source/destination ports at random in
	// [10000, 60000] per destination.
	PortSeed int64
	// ShardOf, when the transport is sharded (topo.GenConfig.Shards > 1),
	// maps each destination to its shard index. The campaign then assigns
	// workers shard-affine destination slices: as long as there are at
	// least as many workers as shards, no worker ever probes two shards,
	// so the per-shard networks (and the cache lines of their routers)
	// are never shared across a worker's round. Nil keeps the paper's
	// contiguous 1/Workers slicing.
	ShardOf map[netip.Addr]int
	// Batch widens every trace's TTL ladder to a window of BatchWindow
	// TTLs when the transport batches (tracer.BatchTransport); each
	// destination feeds its previous round's path length back as the next
	// round's window hint. Off, or over a transport without batching, the
	// window is one TTL. Off by default.
	Batch bool
	// BatchWindow overrides the TTL-window per batch (0: tracer
	// default). Ignored unless Batch is set.
	BatchWindow int
	// Stream folds each completed pair into a per-worker Accumulator the
	// moment it is measured instead of retaining it; Run then merges the
	// workers' partials once at campaign end and returns them in
	// Results.Stats, leaving Results.Rounds nil. Campaign memory becomes
	// O(destinations + unique routes), independent of the round count,
	// with statistics byte-identical to Analyze over retained results
	// (see the package comment's streaming contract). Off by default.
	Stream bool
	// FailFast restores the historical abort semantics: the first trace
	// error any worker hits stops the round and fails the campaign. By
	// default (false) the campaign degrades instead — see the package
	// comment's error-policy contract.
	FailFast bool
	// Sleep replaces time.Sleep for retry backoff waits; tests inject a
	// recording no-op so retry schedules are asserted without real delays.
	// Nil sleeps for real.
	Sleep func(time.Duration)

	// CheckpointPath, when set on a streaming campaign, persists a
	// resumable checkpoint to this path after every CheckpointEvery
	// completed rounds (atomic temp-file + rename). See the package
	// comment's checkpointing contract and the Checkpoint type.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in completed rounds. Zero
	// selects 1 (every round) — with it, the checkpoint on disk at any
	// kill is exactly the last completed round boundary.
	CheckpointEvery int
	// TransportState, when set, is invoked at each checkpoint and its
	// payload stored verbatim in Checkpoint.Transport. The campaign never
	// interprets it: binaries use it to persist transport cursors (e.g.
	// netsim probe counters) and restore them before resuming.
	TransportState func() json.RawMessage

	// TransportFor, when set, supplies per-worker transports: worker w
	// probes every destination of its plan through TransportFor(w) instead
	// of the shared campaign transport (a nil return falls back to the
	// shared one). Live campaigns use it to give each worker its own
	// handle on the shared socket mux, mirroring the paper's N independent
	// probing processes over one receive path; each returned transport only
	// ever sees one worker, so it need not be safe for concurrent use
	// unless it is itself shared.
	TransportFor func(worker int) tracer.Transport
}

// Defaults fills unset fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.MinTTL <= 0 {
		c.MinTTL = 2
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 39
	}
	if c.MaxConsecutiveStars <= 0 {
		c.MaxConsecutiveStars = 8
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	return c
}

// Outcome classifies what a campaign pair represents. The zero value is
// OutcomeOK, so hand-built pairs keep their historical meaning.
type Outcome int

const (
	// OutcomeOK is a successfully measured pair; both routes are present.
	OutcomeOK Outcome = iota
	// OutcomeFailed is a pair whose measurement failed after the retry
	// budget (or fatally); both routes are nil, nothing was measured.
	OutcomeFailed
	// OutcomeSkipped is a pair never attempted because its destination was
	// quarantined by the error budget; both routes are nil.
	OutcomeSkipped
)

// String renders the outcome for logs and reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFailed:
		return "failed"
	case OutcomeSkipped:
		return "skipped"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Pair is one destination's paired measurement in one round: the Paris
// trace and the classic trace, taken close together in time to minimise
// routing-dynamics skew (Section 4.1.2). Under the default error policy a
// pair may instead record a failure or a quarantine skip — Outcome says
// which, and the routes are nil for anything but OutcomeOK.
type Pair struct {
	Dest    netip.Addr
	Round   int
	Paris   *tracer.Route
	Classic *tracer.Route
	Outcome Outcome
}

// Results collects a campaign's output. Without Config.Stream, Rounds
// holds every measured pair; with it, pairs are folded into per-worker
// accumulators as they complete and never retained, so Rounds stays nil
// and Stats carries the merged statistics.
type Results struct {
	Config Config
	// Rounds[r] lists the pairs measured in round r, one per
	// destination. Nil when the campaign streamed.
	Rounds [][]Pair
	// Stats is the streaming campaign's output: identical to Analyze
	// over the same pairs had they been retained. Nil when the campaign
	// materialized (run Analyze on Rounds instead).
	Stats *Stats
}

// Campaign runs the full study over the given transport. Its workers share
// the transport, which must therefore be safe for concurrent use —
// netsim.Transport forwards exchanges in parallel.
type Campaign struct {
	cfg Config
	// probers[w] is worker w's Prober, over TransportFor(w) when the seam
	// is set and returns non-nil, over the shared transport otherwise. The
	// plan is fixed, so a destination is only ever probed by one worker and
	// a Prober never crosses goroutines.
	probers []*Prober
	// plan[w] lists the destination indices worker w probes each round;
	// computed once at construction (shard-affine when ShardOf is set).
	plan [][]int
	// digest is the campaign's RunDigest, which a checkpoint must match to
	// resume it: beyond the destinations and the probing, the statistics
	// depend on how many rounds it runs, how the list is split among
	// workers, and whether it streams at all.
	digest uint64
	// runs holds each destination's error budget and previous ladder
	// lengths; the next round sizes its routes — and, batched, its first
	// window — from the latter, so a stable route is probed in exactly one
	// batch with no overshoot. Indexed by destination; each slot is owned by
	// the single worker whose plan covers it, so no locking.
	runs []DestRun
	// resume, when non-nil, is the state loaded by Resume (which also filled
	// runs); the next RunContext consumes it and continues from its round
	// cursor.
	resume *resumeState
	// foldEvery is the workers' fold-batch size: the constant, except in the
	// tests that prove statistics do not depend on it.
	foldEvery int
}

// resumeState carries a loaded checkpoint into the next RunContext call.
type resumeState struct {
	nextRound int
	accs      []*Accumulator
}

// NewCampaign creates a campaign; cfg.Dests must be non-empty and free of
// duplicates (statistics are per destination — the accumulators and the
// worker plan both assume one owner per address).
func NewCampaign(tp tracer.Transport, cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if err := ValidateDests(cfg.Dests); err != nil {
		return nil, err
	}
	c := &Campaign{
		cfg:       cfg,
		probers:   make([]*Prober, cfg.Workers),
		plan:      workerPlan(cfg),
		runs:      make([]DestRun, len(cfg.Dests)),
		foldEvery: foldEvery,
	}
	pc := ProbeConfig{
		MinTTL:              cfg.MinTTL,
		MaxTTL:              cfg.MaxTTL,
		MaxConsecutiveStars: cfg.MaxConsecutiveStars,
		PortSeed:            cfg.PortSeed,
		Batch:               cfg.Batch,
		BatchWindow:         cfg.BatchWindow,
	}
	stream := uint64(0)
	if cfg.Stream {
		stream = 1
	}
	c.digest = RunDigest(cfg.Dests, pc, uint64(cfg.Rounds), uint64(cfg.Workers), stream)
	for w := range c.probers {
		wtp := tp
		if cfg.TransportFor != nil {
			if t := cfg.TransportFor(w); t != nil {
				wtp = t
			}
		}
		if wtp == nil {
			return nil, fmt.Errorf("measure: no transport for worker %d (nil shared transport and no TransportFor override)", w)
		}
		c.probers[w] = NewProber(wtp, pc)
	}
	return c, nil
}

// workerPlan partitions the destination indices among the workers. Without
// a shard map this is the paper's contiguous 1/Workers slicing. With one,
// indices are first grouped by shard (stable within a shard, preserving
// list order): when Workers >= shards each shard gets its own contiguous
// block of workers sized W/S (the first W mod S shards getting one extra),
// so no two shards ever share a worker; with fewer workers than shards,
// whole shards are dealt round-robin so each still belongs to one worker.
func workerPlan(cfg Config) [][]int {
	plan := make([][]int, cfg.Workers)
	if cfg.ShardOf == nil {
		all := make([]int, len(cfg.Dests))
		for i := range all {
			all[i] = i
		}
		for w, c := range chunk(all, cfg.Workers) {
			plan[w] = c
		}
		return plan
	}
	maxShard := 0
	for _, s := range cfg.ShardOf {
		if s > maxShard {
			maxShard = s
		}
	}
	byShard := make([][]int, maxShard+1)
	for i, d := range cfg.Dests {
		s := cfg.ShardOf[d] // absent destinations group into shard 0
		byShard[s] = append(byShard[s], i)
	}
	if cfg.Workers < len(byShard) {
		for s, idxs := range byShard {
			w := s % cfg.Workers
			plan[w] = append(plan[w], idxs...)
		}
		return plan
	}
	w := 0
	for s, idxs := range byShard {
		k := cfg.Workers / len(byShard)
		if s < cfg.Workers%len(byShard) {
			k++
		}
		for _, c := range chunk(idxs, k) {
			plan[w] = append(plan[w], c...)
			w++
		}
	}
	return plan
}

// chunk splits idxs into k contiguous, maximally even pieces (the paper's
// 1/Workers slicing); trailing pieces may be empty when k > len(idxs).
func chunk(idxs []int, k int) [][]int {
	out := make([][]int, k)
	for j := 0; j < k; j++ {
		lo := j * len(idxs) / k
		hi := (j + 1) * len(idxs) / k
		out[j] = idxs[lo:hi]
	}
	return out
}

// portFor derives the stable per-destination Paris flow ports in the
// paper's [10000, 60000] range.
func portFor(seed int64, dest netip.Addr, salt uint64) uint16 {
	a := dest.As4()
	x := uint64(seed) ^ salt
	for _, b := range a {
		x = x*keyhash.FNVPrime64 + uint64(b) // FNV-style mix
	}
	return uint16(10000 + x%50000)
}

// Run executes every round and returns the collected results: the retained
// pairs, or, with Config.Stream, the merged statistics of per-worker
// accumulators that consumed each pair as it completed. Run may be called
// repeatedly; a streaming run starts from fresh accumulators each time
// (unless Resume loaded a checkpoint first). Run is RunContext with a
// background context.
func (c *Campaign) Run() (*Results, error) { return c.RunContext(context.Background()) }

// RunContext is Run with prompt cancellation: when ctx is canceled the
// workers stop at their next destination, the interrupted round is never
// checkpointed, and RunContext returns the context's error together with
// the partial results measured so far (a streaming campaign still merges
// its partials into advisory Stats — callers wanting only complete rounds
// should resume from the checkpoint instead).
func (c *Campaign) RunContext(ctx context.Context) (*Results, error) {
	res := &Results{Config: c.cfg}
	var accs []*Accumulator
	if c.cfg.Stream {
		accs = make([]*Accumulator, c.cfg.Workers)
		for w := range accs {
			accs[w] = NewAccumulator()
		}
	}
	start := 0
	if rs := c.resume; rs != nil {
		c.resume = nil
		start, accs = rs.nextRound, rs.accs
		ReplayRounds(c.cfg.RoundStart, start)
	} else {
		// A run that resumes nothing starts with every error budget whole;
		// the ladder hints of an earlier Run stay useful.
		for i := range c.runs {
			c.runs[i] = DestRun{Hints: c.runs[i].Hints}
		}
	}
	var rings []foldRing
	if c.cfg.Stream {
		rings = make([]foldRing, len(accs))
		for w := range rings {
			rings[w] = foldRing{acc: accs[w], prober: c.probers[w], every: c.foldEvery}
		}
	}
	canceled := false
	for r := start; r < c.cfg.Rounds; r++ {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		if c.cfg.RoundStart != nil {
			c.cfg.RoundStart(r)
		}
		pairs, err := c.runRound(ctx, r, rings)
		if err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			// The round was interrupted partway: its partial folds stay
			// in the accumulators for the advisory partial Stats below,
			// but the checkpoint cursor never advances past a round that
			// did not complete.
			canceled = true
			break
		}
		if !c.cfg.Stream {
			res.Rounds = append(res.Rounds, pairs)
		}
		if c.cfg.Stream && c.cfg.CheckpointPath != "" &&
			((r+1)%c.cfg.CheckpointEvery == 0 || r == c.cfg.Rounds-1) {
			// Drain the fold rings first: between rounds the caller
			// goroutine holds the happens-before edge from wg.Wait, so
			// the flush is race-free and the accumulators hold exactly
			// the completed rounds.
			for w := range rings {
				rings[w].flush()
			}
			ck := c.checkpoint(r+1, accs)
			if err := ck.Save(c.cfg.CheckpointPath); err != nil {
				return nil, fmt.Errorf("measure: checkpoint after round %d: %w", r, err)
			}
		}
	}
	if c.cfg.Stream {
		// Drain the per-worker fold rings before the partials meet: a ring
		// is only ever touched by its worker, and the final round's
		// wg.Wait makes these flushes race-free on the caller goroutine.
		for w := range rings {
			rings[w].flush()
		}
		res.Stats = Merge(c.cfg.Rounds, len(c.cfg.Dests), accs...)
	}
	if canceled {
		return res, ctx.Err()
	}
	return res, nil
}

// runRound measures every destination once with Workers parallel workers,
// each holding its planned share of the list (the paper's 32 processes each
// probe 1/32 of the destinations; sharded campaigns use shard-affine
// shares). With rings non-nil (streaming), worker w stages each pair in
// rings[w], which folds it into the worker's accumulator and gives its
// routes back to the worker's Prober; nothing is retained. Otherwise the
// pairs are collected into a slice and their routes are the caller's for
// good. Under the default error policy
// measureDest absorbs failures into Failed/Skipped pairs and runRound never
// errors; with FailFast the first error any worker hits aborts the whole
// round — a stop channel closed under a sync.Once halts the remaining
// workers at their next destination instead of letting them probe out their
// slices silently. Context cancellation stops workers the same way in both
// modes, without an error of its own (the caller reads ctx.Err()).
func (c *Campaign) runRound(ctx context.Context, round int, rings []foldRing) ([]Pair, error) {
	dests := c.cfg.Dests
	var out []Pair
	if rings == nil {
		out = make([]Pair, len(dests))
	}
	var (
		wg       sync.WaitGroup
		stopOnce sync.Once
		stop     = make(chan struct{})
		firstErr error
	)
	for w := 0; w < c.cfg.Workers; w++ {
		if len(c.plan[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				p, err := c.measureDest(ctx, w, round, dests[i], &c.runs[i])
				if err != nil {
					stopOnce.Do(func() {
						firstErr = err
						close(stop)
					})
					return
				}
				if rings != nil {
					rings[w].push(p)
				} else {
					out[i] = p
				}
			}
		}(w, c.plan[w])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// measureDest applies the error policy around one destination's pair: skip
// when quarantined, retry transient failures with seeded-jitter backoff,
// charge the error budget on exhaustion. With FailFast it is the worker's
// Prober.MeasurePair plus nothing — errors propagate and abort the round.
func (c *Campaign) measureDest(ctx context.Context, w, round int, d netip.Addr, run *DestRun) (Pair, error) {
	if !c.cfg.FailFast && run.Quarantined {
		return SkippedPair(d, round), nil
	}
	hints := run.Hints
	p, err := c.probers[w].MeasurePair(d, round, &hints)
	if err != nil && c.cfg.FailFast {
		return Pair{}, err
	}
	for attempt := 1; err != nil && attempt < maxAttempts && tracer.IsTransient(err) && ctx.Err() == nil; attempt++ {
		c.sleep(c.backoff(d, round, attempt))
		p, err = c.probers[w].MeasurePair(d, round, &hints)
	}
	if err != nil {
		run.Failed()
		return FailedPair(d, round), nil
	}
	run.Succeeded(hints)
	return p, nil
}

// The retry policy of a transiently failing pair: at most maxAttempts tries
// per pair per round (the first included; fatal errors are never retried),
// attempt k waiting retryBackoff << (k-1), capped at retryBackoffMax.
const (
	maxAttempts     = 3
	retryBackoff    = 100 * time.Millisecond
	retryBackoffMax = 2 * time.Second
)

// backoff is the delay before retry attempt k (1-based): exponential from
// retryBackoff, capped at retryBackoffMax, scaled by a jitter factor in
// [0.5, 1.5) drawn from a SplitMix64 hash of (PortSeed, destination, round,
// attempt) — deterministic for a campaign, decorrelated across destinations
// so synchronized failures do not retry in lockstep.
func (c *Campaign) backoff(d netip.Addr, round, attempt int) time.Duration {
	delay := retryBackoff << (attempt - 1)
	if delay <= 0 || delay > retryBackoffMax {
		delay = retryBackoffMax
	}
	a := d.As4()
	x := uint64(c.cfg.PortSeed)
	x ^= uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3])
	x ^= uint64(round)<<32 ^ uint64(attempt)<<56
	jitter := 0.5 + float64(keyhash.Mix64(x)>>11)/float64(1<<53)
	return time.Duration(float64(delay) * jitter)
}

// sleep waits through the configured seam (tests) or for real.
func (c *Campaign) sleep(d time.Duration) {
	if c.cfg.Sleep != nil {
		c.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}
