package measure

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"path/filepath"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/keyhash"
	"repro/internal/tracer"
)

// This file is the campaign's checkpoint/restore layer. A checkpoint
// captures everything a streaming campaign needs to continue after a kill:
// the round cursor, the per-destination error budgets, the batching path
// hints, an opaque transport cursor, and each worker accumulator's partial
// statistics. The accumulator state splits into two kinds — the scalar
// tallies and address sets, which serialize verbatim, and the derived
// memo/graph layers, which are NOT serialized: restore replays each
// destination's interned routes (kept with full hop data, in first-seen
// order) through the same analyzeRoute/intern code that built them, so the
// memos, diamond graphs, and address bookkeeping are rebuilt bit-for-bit by
// construction instead of by a parallel serialization format that could
// drift. Pair-classification memos are dropped entirely and recomputed
// lazily — they are a pure function of the interned routes.
//
// Compatibility contract: Checkpoint.Version gates the schema, and Digest
// hashes the campaign shape (destination list, rounds, workers, TTL policy,
// port seed, batch/stream switches), so a checkpoint only ever resumes the
// exact campaign that wrote it. Files are written with an atomic temp-file
// + rename, so a kill during Save leaves the previous checkpoint intact.
//
// On disk a checkpoint is the binary format of internal/ckpt, laid out by
// codec.go; the structs below are its in-memory form (and still marshal with
// encoding/json, which is handy for inspecting one by hand).
//
// The one state this format cannot carry is a fingerprint-collided route
// (two unequal routes of one destination sharing a 64-bit FNV hash): only
// the canonical route of each fingerprint is retained. Such a route was
// never memoized in the first place — folds re-analyze it idempotently — so
// statistics stay correct; only its diamond-graph echo would be rebuilt one
// round late after a resume.

// CheckpointVersion is the schema version Save writes and Load accepts.
// Version 2 added the accumulator RTT tallies (AccState.RTTSamples and
// friends); version 3 replaced the JSON document with the binary format.
// Older files are refused, never resumed with silently wrong statistics.
const CheckpointVersion = 3

// Checkpoint is a streaming campaign's serialized resumable state.
type Checkpoint struct {
	// Version gates the schema.
	Version int
	// Digest fingerprints the campaign configuration that wrote the
	// checkpoint; Resume refuses a mismatch.
	Digest uint64
	// NextRound is the first round the resumed campaign will run; rounds
	// [0, NextRound) are fully folded into Workers.
	NextRound int
	// Health is the per-destination error budget, indexed like
	// Config.Dests.
	Health []HealthState
	// ParisHint and ClasHint are the batching path-length hints, indexed
	// like Config.Dests; present only for batched campaigns.
	ParisHint []int `json:",omitempty"`
	ClasHint  []int `json:",omitempty"`
	// Transport is the opaque payload of Config.TransportState: transport
	// cursors the campaign persists but never interprets.
	Transport json.RawMessage `json:",omitempty"`
	// Workers holds one accumulator snapshot per campaign worker, in
	// worker order (the worker plan is a pure function of the config, so
	// snapshot w resumes as worker w's accumulator).
	Workers []AccState
}

// HealthState is one destination's serialized error budget.
type HealthState struct {
	ConsecFails int  `json:",omitempty"`
	Quarantined bool `json:",omitempty"`
}

// AccState is one worker accumulator's serialized partial statistics.
type AccState struct {
	Routes, Reached, Responses, MidStars     int
	RoutesWithLoop, LoopInstances, ParisOnly int
	RoutesWithCycle, CycleInstances          int
	Failed, Skipped                          int
	// Hop RTT tallies (integer nanoseconds; see Accumulator).
	RTTSamples                int   `json:",omitempty"`
	RTTSum                    int64 `json:",omitempty"`
	RTTMin, RTTMax            int64 `json:",omitempty"`
	LoopByCause, CycleByCause map[anomaly.Cause]int
	// Address sets, sorted ascending for deterministic files.
	Addrs, LoopAddrs, CycleAddrs []netip.Addr
	SkippedDests                 []netip.Addr `json:",omitempty"`
	// Dests holds the per-destination states, sorted by address.
	Dests []DestCheckpoint
}

// DestCheckpoint is one destination's serialized accumulator state.
type DestCheckpoint struct {
	Dest              netip.Addr
	SawLoop, SawCycle bool `json:",omitempty"`
	// Routes lists the destination's interned routes — classic and Paris
	// interleaved — in first-seen order, each with full hop data (RTTs
	// and IP IDs included: the memoized pair classification consults the
	// first-seen route's IP IDs, so the canonical object must survive the
	// round trip exactly).
	Routes []RouteCheckpoint
	// LoopSigs and CycleSigs are the signature spans, sorted by address.
	LoopSigs  []SigCheckpoint `json:",omitempty"`
	CycleSigs []SigCheckpoint `json:",omitempty"`
}

// RouteCheckpoint is one interned route with its discipline.
type RouteCheckpoint struct {
	Classic bool `json:",omitempty"`
	Route   *tracer.Route
}

// SigCheckpoint is one signature span.
type SigCheckpoint struct {
	Addr      netip.Addr
	LastRound int
	Rounds    int
}

// configDigest hashes the campaign shape a checkpoint is only valid for.
func (c *Campaign) configDigest() uint64 {
	h := keyhash.FNVOffset64
	mix := func(x uint64) {
		h = (h ^ x) * keyhash.FNVPrime64
	}
	mix(uint64(len(c.cfg.Dests)))
	for _, d := range c.cfg.Dests {
		a := d.As4()
		mix(uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3]))
	}
	mix(uint64(c.cfg.Rounds))
	mix(uint64(c.cfg.Workers))
	mix(uint64(c.cfg.MinTTL))
	mix(uint64(c.cfg.MaxTTL))
	mix(uint64(c.cfg.MaxConsecutiveStars))
	mix(uint64(c.cfg.PortSeed))
	flags := uint64(0)
	if c.cfg.Batch {
		flags |= 1
	}
	if c.cfg.Stream {
		flags |= 2
	}
	mix(flags)
	return h
}

// checkpoint snapshots the campaign after nextRound-1 completed. Caller
// must have flushed the fold rings (RunContext checkpoints only between
// rounds, where the wg.Wait edge makes the accumulators quiescent).
func (c *Campaign) checkpoint(nextRound int, accs []*Accumulator, health []destHealth) *Checkpoint {
	ck := &Checkpoint{
		Version:   CheckpointVersion,
		Digest:    c.configDigest(),
		NextRound: nextRound,
		Health:    make([]HealthState, len(health)),
		Workers:   make([]AccState, len(accs)),
	}
	for i, h := range health {
		ck.Health[i] = HealthState{ConsecFails: h.consecFails, Quarantined: h.quarantined}
	}
	if c.cfg.Batch {
		ck.ParisHint = make([]int, len(c.hints))
		ck.ClasHint = make([]int, len(c.hints))
		for i, h := range c.hints {
			ck.ParisHint[i], ck.ClasHint[i] = h.Paris, h.Classic
		}
	}
	if c.cfg.TransportState != nil {
		ck.Transport = c.cfg.TransportState()
	}
	for w, a := range accs {
		ck.Workers[w] = snapshotAcc(a)
	}
	return ck
}

// sortedAddrs flattens an address set ascending.
func sortedAddrs(set map[netip.Addr]bool) []netip.Addr {
	if len(set) == 0 {
		return nil
	}
	out := make([]netip.Addr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// sortedSigs flattens a signature-span map by ascending address.
func sortedSigs(sigs map[netip.Addr]*sigSpan) []SigCheckpoint {
	if len(sigs) == 0 {
		return nil
	}
	out := make([]SigCheckpoint, 0, len(sigs))
	for a, sp := range sigs {
		out = append(out, SigCheckpoint{Addr: a, LastRound: sp.lastRound, Rounds: sp.rounds})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// snapshotAcc serializes one accumulator.
func snapshotAcc(a *Accumulator) AccState {
	st := AccState{
		Routes: a.routes, Reached: a.reached, Responses: a.responses, MidStars: a.midStars,
		RoutesWithLoop: a.routesWithLoop, LoopInstances: a.loopInstances, ParisOnly: a.parisOnly,
		RoutesWithCycle: a.routesWithCycle, CycleInstances: a.cycleInstances,
		Failed: a.failed, Skipped: a.skipped,
		RTTSamples: a.rttSamples, RTTSum: a.rttSum, RTTMin: a.rttMin, RTTMax: a.rttMax,
		LoopByCause:  make(map[anomaly.Cause]int, len(a.loopByCause)),
		CycleByCause: make(map[anomaly.Cause]int, len(a.cycleByCause)),
		Addrs:        sortedAddrs(a.addrs),
		LoopAddrs:    sortedAddrs(a.loopAddrs),
		CycleAddrs:   sortedAddrs(a.cycleAddrs),
		SkippedDests: sortedAddrs(a.skippedDests),
	}
	for c, n := range a.loopByCause {
		st.LoopByCause[c] = n
	}
	for c, n := range a.cycleByCause {
		st.CycleByCause[c] = n
	}
	if len(a.dests) > 0 {
		st.Dests = make([]DestCheckpoint, 0, len(a.dests))
		for dest, ds := range a.dests {
			dc := DestCheckpoint{
				Dest: dest, SawLoop: ds.sawLoop, SawCycle: ds.sawCycle,
				Routes:    make([]RouteCheckpoint, ds.nextSeq),
				LoopSigs:  sortedSigs(ds.loopSigs),
				CycleSigs: sortedSigs(ds.cycleSigs),
			}
			for _, mo := range ds.classic {
				dc.Routes[mo.seq] = RouteCheckpoint{Classic: true, Route: mo.rt}
			}
			for _, mo := range ds.paris {
				dc.Routes[mo.seq] = RouteCheckpoint{Route: mo.rt}
			}
			st.Dests = append(st.Dests, dc)
		}
		sort.Slice(st.Dests, func(i, j int) bool { return st.Dests[i].Dest.Less(st.Dests[j].Dest) })
	}
	return st
}

// restoreAcc rebuilds one accumulator from its snapshot: scalars and sets
// load directly; the memo and graph layers are rebuilt by replaying the
// interned routes, in first-seen order, through the same analysis code that
// built them originally.
func restoreAcc(st AccState) (*Accumulator, error) {
	a := NewAccumulator()
	a.routes, a.reached, a.responses, a.midStars = st.Routes, st.Reached, st.Responses, st.MidStars
	a.routesWithLoop, a.loopInstances, a.parisOnly = st.RoutesWithLoop, st.LoopInstances, st.ParisOnly
	a.routesWithCycle, a.cycleInstances = st.RoutesWithCycle, st.CycleInstances
	a.failed, a.skipped = st.Failed, st.Skipped
	a.rttSamples, a.rttSum, a.rttMin, a.rttMax = st.RTTSamples, st.RTTSum, st.RTTMin, st.RTTMax
	for c, n := range st.LoopByCause {
		a.loopByCause[c] = n
	}
	for c, n := range st.CycleByCause {
		a.cycleByCause[c] = n
	}
	for _, ad := range st.Addrs {
		a.addrs[ad] = true
	}
	for _, ad := range st.LoopAddrs {
		a.loopAddrs[ad] = true
	}
	for _, ad := range st.CycleAddrs {
		a.cycleAddrs[ad] = true
	}
	for _, ad := range st.SkippedDests {
		a.skippedDests[ad] = true
	}
	for _, dc := range st.Dests {
		ds := newDestState(dc.Dest)
		a.dests[dc.Dest] = ds
		ds.sawLoop, ds.sawCycle = dc.SawLoop, dc.SawCycle
		for i, rc := range dc.Routes {
			if rc.Route == nil {
				return nil, fmt.Errorf("measure: checkpoint dest %v: route %d missing", dc.Dest, i)
			}
			m := ds.paris
			if rc.Classic {
				m = ds.classic
			}
			fp := rc.Route.Fingerprint()
			if m[fp] != nil {
				return nil, fmt.Errorf("measure: checkpoint dest %v: route %d collides", dc.Dest, i)
			}
			// The decoder accepts a responding hop with no address; the
			// diamond index (anomaly.Graph) keys IPv4 addresses only and
			// panics on anything else, so a file is refused here instead.
			for _, h := range rc.Route.Hops {
				if !h.Star() && !h.Addr.Is4() {
					return nil, fmt.Errorf("measure: checkpoint dest %v: route %d: hop %d responds from %v, not an IPv4 address", dc.Dest, i, h.TTL, h.Addr)
				}
			}
			// A snapshot's routes are exact-size and never written to by
			// either side: interned as they are, not copied.
			a.adopt(m, rc.Route, fp, rc.Classic, ds)
		}
		for _, sg := range dc.LoopSigs {
			ds.loopSigs[sg.Addr] = &sigSpan{lastRound: sg.LastRound, rounds: sg.Rounds}
		}
		for _, sg := range dc.CycleSigs {
			ds.cycleSigs[sg.Addr] = &sigSpan{lastRound: sg.LastRound, rounds: sg.Rounds}
		}
	}
	return a, nil
}

// State snapshots the accumulator's partial statistics for serialization.
// The accumulator must be quiescent (no concurrent Fold); the snapshot is
// deterministic — address sets and destinations sorted, routes in
// first-seen order — so two equal accumulators serialize to identical
// bytes. The always-on daemon checkpoints through this, the campaign
// through the Checkpoint wrapper below.
func (a *Accumulator) State() AccState { return snapshotAcc(a) }

// RestoreAccumulator rebuilds an accumulator from a State snapshot:
// scalars and sets load directly, and the derived memo/graph layers are
// rebuilt by replaying the interned routes through the original analysis
// code (the same path Campaign.Resume uses).
func RestoreAccumulator(st AccState) (*Accumulator, error) { return restoreAcc(st) }

// Save streams the checkpoint to path in the binary format (see codec.go and
// docs/checkpoint.md) on the one atomic write path: temp file, fsync,
// rename, directory fsync, stale temp files swept. A kill mid-write leaves
// the previous checkpoint intact, and nothing checkpoint-sized is ever held
// in memory.
func (ck *Checkpoint) Save(path string) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("measure: cannot write checkpoint version %d, only %d", ck.Version, CheckpointVersion)
	}
	if err := ckpt.WriteFile(path, ckpt.KindCampaign, CheckpointVersion, ck.encode); err != nil {
		return fmt.Errorf("measure: writing checkpoint %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save. The error says which
// way a file is unusable (errors.Is against the ckpt.Err* values): a legacy
// JSON checkpoint, a truncated or corrupted file, a daemon's checkpoint, or
// another version.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := ckpt.ReadFile(path, ckpt.KindCampaign, CheckpointVersion, ck.decode); err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: %w", filepath.Base(path), err)
	}
	return ck, nil
}

// Resume loads a checkpoint into the campaign: the next RunContext call
// continues from the checkpoint's round cursor with the restored
// accumulators, error budgets, and batching hints. Resume validates the
// config digest, so a checkpoint can only continue the campaign shape that
// wrote it. The caller is responsible for restoring Checkpoint.Transport
// into the transport before running.
func (c *Campaign) Resume(ck *Checkpoint) error {
	if !c.cfg.Stream {
		return fmt.Errorf("measure: resume requires a streaming campaign")
	}
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("measure: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if d := c.configDigest(); ck.Digest != d {
		return fmt.Errorf("measure: checkpoint digest %#x does not match campaign %#x", ck.Digest, d)
	}
	if ck.NextRound < 0 || ck.NextRound > c.cfg.Rounds {
		return fmt.Errorf("measure: checkpoint round cursor %d outside campaign rounds %d", ck.NextRound, c.cfg.Rounds)
	}
	if len(ck.Health) != len(c.cfg.Dests) {
		return fmt.Errorf("measure: checkpoint health for %d destinations, campaign has %d", len(ck.Health), len(c.cfg.Dests))
	}
	if len(ck.Workers) != c.cfg.Workers {
		return fmt.Errorf("measure: checkpoint for %d workers, campaign has %d", len(ck.Workers), c.cfg.Workers)
	}
	if c.cfg.Batch && (len(ck.ParisHint) != len(c.cfg.Dests) || len(ck.ClasHint) != len(c.cfg.Dests)) {
		return fmt.Errorf("measure: checkpoint batching hints missing or missized")
	}
	rs := &resumeState{nextRound: ck.NextRound}
	rs.health = make([]destHealth, len(ck.Health))
	for i, h := range ck.Health {
		rs.health[i] = destHealth{consecFails: h.ConsecFails, quarantined: h.Quarantined}
	}
	rs.accs = make([]*Accumulator, len(ck.Workers))
	for w := range ck.Workers {
		a, err := restoreAcc(ck.Workers[w])
		if err != nil {
			return fmt.Errorf("measure: worker %d: %w", w, err)
		}
		rs.accs[w] = a
	}
	if c.cfg.Batch {
		rs.hints = make([]PathHints, len(ck.ParisHint))
		for i := range rs.hints {
			rs.hints[i] = PathHints{Paris: ck.ParisHint[i], Classic: ck.ClasHint[i]}
		}
	}
	c.resume = rs
	return nil
}
