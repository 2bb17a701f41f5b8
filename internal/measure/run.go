package measure

import (
	"fmt"
	"net/netip"

	"repro/internal/ckpt"
	"repro/internal/keyhash"
)

// This file is what a resumable run keeps around its worker pool, stated
// once for the two runtimes that have one — the bounded-rounds Campaign and
// the always-on daemon (internal/daemon): the per-destination record carried
// between pairs, the Failed and Skipped pairs its transitions produce, the
// destination-list rule, the configuration digest, and the replay of
// completed rounds' dynamics. The checkpoint body that serializes them is in
// checkpoint.go.

// DestRun is the one record a run keeps per destination between pairs: the
// error budget (how many pairs in a row have failed, and whether that
// exhausted it) and the previous ladder lengths. It is the in-memory state
// and the checkpointed state alike. A destination is only ever measured by
// one goroutine at a time, which owns its DestRun meanwhile.
type DestRun struct {
	ConsecFails int  `json:",omitempty"`
	Quarantined bool `json:",omitempty"`
	Hints       PathHints
}

// Succeeded records a measured pair: the budget resets and the pair's ladder
// lengths become the next pair's hints.
func (r *DestRun) Succeeded(h PathHints) {
	r.ConsecFails = 0
	r.Hints = h
}

// quarantineAfter is the per-destination error budget of every run, campaign
// and daemon alike: this many failed pairs in a row quarantine the
// destination — folded as Skipped, never probed again this run. A successful
// pair resets the count. A FailFast campaign has no budget.
const quarantineAfter = 3

// Failed charges one failed pair (retries already spent) to the budget and
// reports whether this failure is the one that exhausted it: the
// quarantineAfter-th in a row quarantines the destination, once, and a
// quarantined destination stays quarantined for the rest of the run.
func (r *DestRun) Failed() (justQuarantined bool) {
	r.ConsecFails++
	if r.Quarantined || r.ConsecFails < quarantineAfter {
		return false
	}
	r.Quarantined = true
	return true
}

// FailedPair is what a run folds for a pair whose measurement failed.
func FailedPair(dest netip.Addr, round int) Pair {
	return Pair{Dest: dest, Round: round, Outcome: OutcomeFailed}
}

// SkippedPair is what a run folds, without probing, for each pair of a
// quarantined destination.
func SkippedPair(dest netip.Addr, round int) Pair {
	return Pair{Dest: dest, Round: round, Outcome: OutcomeSkipped}
}

// minDestRun is the fewest bytes one DestRun occupies in a checkpoint.
const minDestRun = 4 // ConsecFails, Quarantined, two hints

func (r *DestRun) encode(e *ckpt.Encoder) {
	e.Int(int64(r.ConsecFails))
	e.Bool(r.Quarantined)
	e.Int(int64(r.Hints.Paris))
	e.Int(int64(r.Hints.Classic))
}

func (r *DestRun) decode(d *ckpt.Decoder) {
	r.ConsecFails = int(d.Int())
	r.Quarantined = d.Bool()
	r.Hints = PathHints{Paris: int(d.Int()), Classic: int(d.Int())}
}

// ValidateDests is the destination-list rule of every run: non-empty and
// free of duplicates (statistics are per destination — the accumulators and
// the schedulers both assume one owner per address).
func ValidateDests(dests []netip.Addr) error {
	if len(dests) == 0 {
		return fmt.Errorf("measure: empty destination list")
	}
	seen := make(map[netip.Addr]bool, len(dests))
	for _, d := range dests {
		if seen[d] {
			return fmt.Errorf("measure: duplicate destination %v", d)
		}
		seen[d] = true
	}
	return nil
}

// RunDigest fingerprints what a checkpoint is only valid for: the
// destination list, the effective probing shape — probe with its defaults
// applied, so a zero field and its spelled-out default hash alike — and
// whatever else the caller's statistics depend on (the campaign adds its
// rounds, workers and stream switch; the daemon nothing, its cadence knobs
// being retunable across restarts).
func RunDigest(dests []netip.Addr, probe ProbeConfig, extras ...uint64) uint64 {
	probe = probe.withDefaults()
	h := keyhash.FNVOffset64
	mix := func(x uint64) {
		h = (h ^ x) * keyhash.FNVPrime64
	}
	mix(uint64(len(dests)))
	for _, d := range dests {
		a := d.As4()
		mix(uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3]))
	}
	mix(uint64(probe.MinTTL))
	mix(uint64(probe.MaxTTL))
	mix(uint64(probe.MaxConsecutiveStars))
	mix(uint64(probe.PortSeed))
	if probe.Batch {
		mix(1)
		mix(uint64(probe.BatchWindow))
	} else {
		mix(0) // the window only exists on a batched ladder
	}
	for _, x := range extras {
		mix(x)
	}
	return h
}

// ReplayRounds re-runs a RoundStart hook for the completed rounds of a
// resumed run, so the rounds still to come see the same topology evolution
// the uninterrupted run would have (topo.Generate's RoundStart draws
// sequentially from one seeded stream).
func ReplayRounds(roundStart func(round int), completed int) {
	if roundStart == nil {
		return
	}
	for r := 0; r < completed; r++ {
		roundStart(r)
	}
}
