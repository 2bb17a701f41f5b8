package daemon

import (
	"net/netip"
	"sort"

	"repro/internal/keyhash"
	"repro/internal/measure"
)

// destSched is one destination's scheduler state, guarded by the daemon
// mutex. A dispatched job carries a copy of the path hints to its worker and
// finish writes the new ones back, so no worker touches this struct (and a
// destination is never in flight twice — inFlight gates re-dispatch).
type destSched struct {
	// DestRun is the error budget and the path hints carried between the
	// destination's pairs — the record a campaign keeps too — and DestState
	// the cadence; both are checkpointed as they are.
	measure.DestRun
	DestState
	dest netip.Addr
	idx  int
	// inFlight marks a dispatched, unresolved job.
	inFlight bool
}

// DestState is one destination's cadence: what the scheduler keeps per
// destination beyond the DestRun, in memory and in the checkpoint's schedule
// section alike.
type DestState struct {
	// NextDue is the earliest round the destination may be probed in.
	NextDue int64
	// Seen is true once a pair completed; the first completion never
	// counts as a route change.
	Seen bool `json:",omitempty"`
	// ParisFP and ClassicFP are the last completed pair's route
	// fingerprints — the interned identity the re-exploration trigger
	// compares against.
	ParisFP, ClassicFP uint64 `json:",omitempty"`
	// Pairs counts completed (OK) pairs, for observability.
	Pairs int64 `json:",omitempty"`
	// ShedStreak counts consecutive rounds this destination was shed by
	// admission without being dispatched in between; the victim-selection
	// score decays exponentially in it, so a destination the lottery keeps
	// hitting becomes rapidly un-sheddable (aging — no starvation under
	// persistent overload). Dispatch resets it.
	ShedStreak int `json:",omitempty"`
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
		if !ds.inFlight && ds.NextDue <= round {
			out = append(out, ds)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NextDue != out[j].NextDue {
			return out[i].NextDue < out[j].NextDue
		}
		return out[i].idx < out[j].idx
	})
	return out
}

// shedScore ranks one runnable destination as a shedding victim this round:
// a deterministic per-(round, idx) SplitMix64 draw — random-early shed, so
// under persistent overload the victims rotate instead of always being the
// head of the due ordering — downshifted 8 bits per round of shed streak, so
// a destination shed k rounds running wins the next lottery only against
// destinations 256^k times unluckier. Determinism per round keeps rounds
// reproducible and checkpoints exact.
func shedScore(round int64, ds *destSched) uint64 {
	x := keyhash.Mix64(uint64(round)*keyhash.Golden64 ^ uint64(uint32(ds.idx))<<1)
	shift := ds.ShedStreak * 8
	if shift > 56 {
		shift = 56
	}
	return x >> shift
}

// shedVictims picks the n destinations to shed from runnable: the n
// highest scores (ties broken by list index, for full determinism).
func shedVictims(runnable []*destSched, n int, round int64) []*destSched {
	type cand struct {
		ds    *destSched
		score uint64
	}
	cands := make([]cand, len(runnable))
	for i, ds := range runnable {
		cands[i] = cand{ds, shedScore(round, ds)}
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
