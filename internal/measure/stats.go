package measure

import (
	"net/netip"

	"repro/internal/anomaly"
	"repro/internal/tracer"
)

// LoopStats aggregates Section 4.1.2.
type LoopStats struct {
	// Instances is the number of loops observed in classic routes.
	Instances int
	// RoutesWithLoop counts classic measured routes containing at least
	// one loop (the paper: 5.3% of routes).
	RoutesWithLoop int
	// DestsWithLoop counts destinations toward which a loop was ever
	// observed (the paper: 18%).
	DestsWithLoop int
	// AddrsInLoop counts discovered addresses involved in a loop at
	// least once (the paper: 6.3% of all addresses).
	AddrsInLoop int
	// Signatures counts distinct (addr, dest) loop signatures.
	Signatures int
	// OneRoundSignatures counts signatures observed in exactly one
	// round (the paper: 18% of signatures).
	OneRoundSignatures int
	// ParisOnly counts loop instances seen by Paris whose address loops
	// nowhere in the paired classic route (the paper: 0.25% of the
	// classic count).
	ParisOnly int
	// ByCause tallies classic loop instances per attributed cause
	// (the paper: 87% per-flow, 6.9% zero-TTL, 1.2% unreachability,
	// 2.8% rewriting, 2.5% per-packet).
	ByCause map[anomaly.Cause]int
}

// CycleStats aggregates Section 4.2.2.
type CycleStats struct {
	Instances          int
	RoutesWithCycle    int // paper: 0.84% of routes
	DestsWithCycle     int // paper: 11%
	AddrsInCycle       int // paper: 3.6%
	Signatures         int
	OneRoundSignatures int // paper: 30%
	// MeanRoundsPerSignature is the average number of rounds each cycle
	// signature was observed in (the paper: 6.8 rounds, or 1.2%).
	MeanRoundsPerSignature float64
	ByCause                map[anomaly.Cause]int
}

// DiamondStats aggregates Section 4.3.2.
type DiamondStats struct {
	// Total counts diamonds across all per-destination classic graphs
	// (the paper: 16,385).
	Total int
	// DestsWithDiamond counts destinations whose classic graph contains
	// at least one diamond (the paper: 79%).
	DestsWithDiamond int
	// PerFlow counts classic diamonds absent from the paired Paris graph
	// (the paper: 64%).
	PerFlow int
	// ParisTotal counts diamonds remaining in Paris graphs.
	ParisTotal int
}

// RobustStats accounts for the campaign's error policy: of the
// destination-rounds attempted, how many pairs were measured, how many
// failed after the retry budget, and how many were skipped because their
// destination had been quarantined. All zero on a fault-free campaign.
type RobustStats struct {
	// Probed counts successfully measured pairs (equals Stats.Routes).
	Probed int
	// Failed counts pairs whose measurement failed after retries.
	Failed int
	// Skipped counts pairs never attempted: their destination was
	// quarantined by the error budget when the round reached it.
	Skipped int
	// QuarantinedDests counts destinations with at least one Skipped
	// pair — derivable purely from the folded pairs, so streaming and
	// materialize-then-Analyze agree byte for byte.
	QuarantinedDests int

	// The remaining fields are the always-on daemon's degraded-mode
	// accounting (internal/daemon); they stay zero on batch campaigns.
	// Merge does not sum them — the daemon stamps them onto each served
	// snapshot from its own supervision counters, which live outside the
	// accumulators (a shed job was never measured, so there is no pair
	// to fold).

	// Shed counts jobs dropped at scheduler admission by the overload
	// policy, a seeded lottery with aging (docs/daemon.md); the
	// destination is re-armed for the next round, never lost.
	Shed int `json:",omitempty"`
	// WorkerRestarts counts supervised worker replacements after a
	// panic (restart-with-backoff; see the daemon's state machine).
	WorkerRestarts int `json:",omitempty"`
	// WatchdogStalls counts traces the watchdog declared stalled and
	// abandoned (the wedged worker is replaced, its late result
	// discarded).
	WatchdogStalls int `json:",omitempty"`
	// DeadWorkers counts workers that exhausted their restart budget;
	// nonzero means the daemon is running degraded.
	DeadWorkers int `json:",omitempty"`

	// Mux, when the campaign probes through a shared live socket mux
	// (internal/tracer/live.Mux), is the mux's health snapshot — in-flight
	// probes, kernel drops, socket reopens, pressure events, adaptive-
	// timeout spread. Like the daemon fields it is stamped by the binary
	// that owns the mux, never merged: the counters live in the mux, not
	// in the folded pairs. Nil on simulated and per-worker-socket runs.
	Mux *tracer.MuxHealth `json:",omitempty"`
}

// RTTStats aggregates per-hop round-trip times across every measured
// route. All samples are virtual-clock times when the campaign runs
// against a netsim network with dynamics enabled (or steps-derived
// synthetic RTTs otherwise); hops with no RTT (stars, zero-RTT
// transports) contribute nothing, so Samples is 0 on a dynamics-off
// simulated campaign with the synthetic per-hop latency disabled.
// Tallies are integer nanoseconds folded in any order, so the aggregate
// is invariant to worker and batch scheduling like every other
// statistic.
type RTTStats struct {
	// Samples counts hop RTT observations across both tracers.
	Samples int
	// SumNs accumulates the observations in nanoseconds; the mean is
	// SumNs/Samples.
	SumNs int64
	// MinNs and MaxNs bound the observations (0 when Samples is 0).
	MinNs, MaxNs int64
}

// MeanNs returns the mean hop RTT in nanoseconds, 0 without samples.
func (r RTTStats) MeanNs() int64 {
	if r.Samples == 0 {
		return 0
	}
	return r.SumNs / int64(r.Samples)
}

// Stats bundles every Section 4 aggregate plus trace bookkeeping.
type Stats struct {
	Rounds     int
	Dests      int
	Routes     int // classic measured routes (Dests × Rounds when fault-free)
	Responses  int // responding probes across both tracers
	MidStars   int // stars amid responses (paper: 2.6 million)
	AddrsSeen  int // distinct addresses discovered
	ReachedPct float64
	RTT        RTTStats
	Robust     RobustStats
	Loops      LoopStats
	Cycles     CycleStats
	Diamonds   DiamondStats
	// AllAddresses lists the distinct responder addresses in ascending
	// order (Merge sorts them), so reports and AS-coverage output are
	// reproducible run to run.
	AllAddresses []netip.Addr
}

// Analyze computes the paper's statistics over retained campaign results.
// It feeds every pair, in round order, through one streaming Accumulator —
// the same one a Config.Stream campaign folds into per worker — and merges
// it. It is the serial reference the streaming path is held to
// (simtest's TestHouseInvariant, the route-poison suite); the binaries
// always stream.
func Analyze(res *Results) *Stats {
	a := NewAccumulator()
	for r := range res.Rounds {
		for i := range res.Rounds[r] {
			a.foldAt(&res.Rounds[r][i], r)
		}
	}
	return Merge(len(res.Rounds), len(res.Config.Dests), a)
}

// pct returns 100*a/b.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// CausePct returns the share of cause c among the tallied instances.
func CausePct(byCause map[anomaly.Cause]int, c anomaly.Cause) float64 {
	total := 0
	for _, n := range byCause {
		total += n
	}
	return pct(byCause[c], total)
}
