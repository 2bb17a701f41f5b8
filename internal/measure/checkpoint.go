package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/tracer"
)

// This file is the checkpoint/restore layer of a run — the campaign's whole
// checkpoint, and the body the daemon's checkpoint extends with its schedule
// section. A checkpoint captures everything a run needs to continue after a
// kill: the round cursor, the per-destination error budgets and path hints
// (DestRun), an opaque transport cursor, and each accumulator's partial
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
// Compatibility contract: the frame's version byte gates the schema, and
// Digest hashes the run's shape (RunDigest: destination list, effective
// probing, and for a campaign its rounds, workers and stream switch), so a
// checkpoint only ever resumes the exact run that wrote it. Files are
// written with an atomic temp-file + rename, so a kill during Save leaves
// the previous checkpoint intact.
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
// friends); version 3 replaced the JSON document with the binary format;
// version 4 is the run body shared with the daemon (one DestRun per
// destination where version 3 had a health table and two hint arrays).
// Older files are refused, never resumed with silently wrong statistics.
const CheckpointVersion = 4

// Checkpoint is a run's serialized resumable state: all of a streaming
// campaign's, and the body of the daemon's.
type Checkpoint struct {
	// Digest fingerprints the configuration that wrote the checkpoint
	// (RunDigest); Restore refuses a mismatch.
	Digest uint64
	// NextRound is the first round the resumed run will run; rounds
	// [0, NextRound) are fully folded into Workers.
	NextRound int
	// Transport is the opaque payload of Config.TransportState: transport
	// cursors the run persists but never interprets.
	Transport json.RawMessage `json:",omitempty"`
	// Dests is the per-destination error budget and path hints, indexed
	// like Config.Dests.
	Dests []DestRun
	// Workers holds one accumulator snapshot per campaign worker, in
	// worker order (the worker plan is a pure function of the config, so
	// snapshot w resumes as worker w's accumulator). The daemon folds into
	// one accumulator and writes exactly one.
	Workers []AccState
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

// checkpoint snapshots the campaign after nextRound-1 completed. Caller
// must have flushed the fold rings (RunContext checkpoints only between
// rounds, where the wg.Wait edge makes the accumulators and the DestRuns
// quiescent).
func (c *Campaign) checkpoint(nextRound int, accs []*Accumulator) *Checkpoint {
	ck := &Checkpoint{
		Digest:    c.digest,
		NextRound: nextRound,
		Dests:     slices.Clone(c.runs),
		Workers:   make([]AccState, len(accs)),
	}
	if c.cfg.TransportState != nil {
		ck.Transport = c.cfg.TransportState()
	}
	for w, a := range accs {
		ck.Workers[w] = a.State()
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

// State snapshots the accumulator's partial statistics for serialization.
// The accumulator must be quiescent (no concurrent Fold); the snapshot is
// deterministic — address sets and destinations sorted, routes in
// first-seen order — so two equal accumulators serialize to identical
// bytes.
func (a *Accumulator) State() AccState {
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

// RestoreAccumulator rebuilds one accumulator from a State snapshot: scalars
// and sets load directly; the memo and graph layers are rebuilt by replaying
// the interned routes, in first-seen order, through the same analysis code
// that built them originally. Checkpoint.Restore calls it per accumulator.
func RestoreAccumulator(st AccState) (*Accumulator, error) {
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

// Save streams the checkpoint to path in the binary format (see codec.go and
// docs/checkpoint.md) on the one atomic write path: temp file, fsync,
// rename, directory fsync, stale temp files swept. A kill mid-write leaves
// the previous checkpoint intact, and nothing checkpoint-sized is ever held
// in memory.
func (ck *Checkpoint) Save(path string) error {
	if err := ckpt.WriteFile(path, ckpt.KindCampaign, CheckpointVersion, ck.Encode); err != nil {
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
	if err := ckpt.ReadFile(path, ckpt.KindCampaign, CheckpointVersion, ck.Decode); err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: %w", filepath.Base(path), err)
	}
	return ck, nil
}

// ErrDigest is Restore's refusal of a checkpoint written under another
// configuration — the one refusal that says nothing is wrong with the file.
var ErrDigest = errors.New("checkpoint digest does not match the configuration")

// Restore is the one way back from a loaded body into a run: it validates
// the body against the run that wants to continue from it — digest (the
// run's RunDigest), destination count, accumulator count, a round cursor and
// error budgets no run can have produced negative — and rebuilds the
// accumulators by replay. What only one runtime knows stays with it: the
// campaign's upper bound on the round cursor, the daemon's schedule section
// and its policy for a file that fails here.
func (ck *Checkpoint) Restore(digest uint64, dests, accs int) ([]*Accumulator, error) {
	if ck.Digest != digest {
		return nil, fmt.Errorf("measure: %w: checkpoint %#x, configuration %#x", ErrDigest, ck.Digest, digest)
	}
	if ck.NextRound < 0 {
		return nil, fmt.Errorf("measure: checkpoint round cursor %d is negative", ck.NextRound)
	}
	if len(ck.Dests) != dests {
		return nil, fmt.Errorf("measure: checkpoint for %d destinations, configuration has %d", len(ck.Dests), dests)
	}
	if len(ck.Workers) != accs {
		return nil, fmt.Errorf("measure: checkpoint holds %d accumulators, configuration needs %d", len(ck.Workers), accs)
	}
	for i, r := range ck.Dests {
		if r.ConsecFails < 0 {
			return nil, fmt.Errorf("measure: checkpoint destination %d: %d consecutive failures", i, r.ConsecFails)
		}
	}
	out := make([]*Accumulator, accs)
	for w := range ck.Workers {
		a, err := RestoreAccumulator(ck.Workers[w])
		if err != nil {
			return nil, fmt.Errorf("measure: worker %d: %w", w, err)
		}
		out[w] = a
	}
	return out, nil
}

// Resume loads a checkpoint into the campaign: the next RunContext call
// continues from the checkpoint's round cursor with the restored
// accumulators, error budgets, and path hints. Restore validates the config
// digest, so a checkpoint can only continue the campaign shape that wrote
// it. The caller is responsible for restoring Checkpoint.Transport into the
// transport before running.
func (c *Campaign) Resume(ck *Checkpoint) error {
	if !c.cfg.Stream {
		return fmt.Errorf("measure: resume requires a streaming campaign")
	}
	accs, err := ck.Restore(c.digest, len(c.cfg.Dests), c.cfg.Workers)
	if err != nil {
		return err
	}
	if ck.NextRound > c.cfg.Rounds {
		return fmt.Errorf("measure: checkpoint round cursor %d outside campaign rounds %d", ck.NextRound, c.cfg.Rounds)
	}
	copy(c.runs, ck.Dests)
	c.resume = &resumeState{nextRound: ck.NextRound, accs: accs}
	return nil
}
