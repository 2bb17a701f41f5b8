package daemon

import (
	"net/netip"
	"sort"

	"repro/internal/keyhash"
	"repro/internal/measure"
)

// destSched is one destination's scheduler state. Every field is guarded by
// the daemon mutex except hints, which only the single worker running the
// destination's in-flight job touches (a destination is never in flight
// twice — inFlight gates re-dispatch).
type destSched struct {
	dest netip.Addr
	idx  int
	// nextDue is the earliest round the destination may be probed in.
	nextDue int64
	// inFlight marks a dispatched, unresolved job.
	inFlight bool
	// seen is true once a pair completed; the first completion never
	// counts as a route change.
	seen bool
	// parisFP and classicFP are the last completed pair's route
	// fingerprints — the interned identity the re-exploration trigger
	// compares against.
	parisFP, classicFP uint64
	// consecFails and quarantined are the error budget, with campaign
	// semantics: QuarantineAfter consecutive failures quarantine the
	// destination; a success resets the count.
	consecFails int
	quarantined bool
	// hints carries the batched ladder lengths between the destination's
	// pairs.
	hints measure.PathHints
	// pairs counts completed (OK) pairs, for observability.
	pairs int64
	// shedStreak counts consecutive rounds this destination was shed by
	// admission without being dispatched in between; the victim-selection
	// score decays exponentially in it, so a destination the lottery keeps
	// hitting becomes rapidly un-sheddable (aging — no starvation under
	// persistent overload). Dispatch resets it.
	shedStreak int
}

// scheduler owns the per-destination cadence table.
type scheduler struct {
	dests  []*destSched
	period int64
}

func newScheduler(dests []netip.Addr, period int64) *scheduler {
	s := &scheduler{dests: make([]*destSched, len(dests)), period: period}
	for i, d := range dests {
		// Everything is due at round 0; admission shedding spreads the
		// initial herd when the queue bound is tighter than the list.
		s.dests[i] = &destSched{dest: d, idx: i}
	}
	return s
}

// due lists the destinations runnable in round, oldest due first (ties in
// list order), excluding in-flight ones. Caller holds the daemon mutex.
func (s *scheduler) due(round int64) []*destSched {
	var out []*destSched
	for _, ds := range s.dests {
		if !ds.inFlight && ds.nextDue <= round {
			out = append(out, ds)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].nextDue != out[j].nextDue {
			return out[i].nextDue < out[j].nextDue
		}
		return out[i].idx < out[j].idx
	})
	return out
}

// shedScore ranks one runnable destination as a shedding victim this round:
// a deterministic per-(seed, round, idx) SplitMix64 draw — random-early
// shed, so under persistent overload the victims rotate instead of always
// being the head of the due ordering — downshifted 8 bits per round of
// shed streak, so a destination shed k rounds running wins the next
// lottery only against destinations 256^k times unluckier. Determinism per
// (seed, round) keeps rounds reproducible and checkpoints exact.
func shedScore(seed, round int64, ds *destSched) uint64 {
	x := keyhash.Mix64(uint64(seed) ^ uint64(round)*keyhash.Golden64 ^ uint64(uint32(ds.idx))<<1)
	shift := ds.shedStreak * 8
	if shift > 56 {
		shift = 56
	}
	return x >> shift
}

// shedVictims picks the n destinations to shed from runnable: the n
// highest scores (ties broken by list index, for full determinism).
func shedVictims(runnable []*destSched, n int, seed, round int64) []*destSched {
	type cand struct {
		ds    *destSched
		score uint64
	}
	cands := make([]cand, len(runnable))
	for i, ds := range runnable {
		cands[i] = cand{ds, shedScore(seed, round, ds)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].ds.idx < cands[j].ds.idx
	})
	out := make([]*destSched, n)
	for i := range out {
		out[i] = cands[i].ds
	}
	return out
}
