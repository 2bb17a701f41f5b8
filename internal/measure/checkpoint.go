package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"path/filepath"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/tracer"
)

// This file is the checkpoint/restore layer of a run — the campaign's whole
// checkpoint, and the body the daemon's checkpoint extends with its schedule
// section. A checkpoint captures everything a run needs to continue after a
// kill: the round cursor, the per-destination error budgets and path hints
// (DestRun), an opaque transport payload, and each accumulator's partial
// statistics. The accumulator state splits into two kinds — the scalar
// tallies and address sets, which serialize verbatim, and the derived
// memo/graph layers, which are NOT serialized: restore materializes each
// destination's interned routes (their hop cells as the accumulator stores
// them, in first-seen order) and replays them through the same analyzeRoute
// code that built them, so the memos, diamond graphs, and address
// bookkeeping are rebuilt bit-for-bit by construction instead of by a
// parallel serialization format that could drift. Pair-classification memos
// are dropped entirely and recomputed lazily — they are a pure function of
// the interned routes. A cell holds exactly the observables route equality
// compares: RTTs and IP IDs are not in the file because nothing memoized
// reads them (see stream.go), so a restored route is Equal to the one
// folded, not identical to it, and that is all a resumed fold needs.
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
// The one state this format cannot carry is a route that was never
// interned: a fingerprint-collided one (two unequal routes of one
// destination sharing a 64-bit FNV hash; only the first of each fingerprint
// is retained) or one no cell holds (packHop). Such a route was never
// memoized in the first place — folds re-analyze it idempotently — so
// statistics stay correct; only its diamond-graph echo would be rebuilt one
// round late after a resume.

// checkpointVersion is the schema version Save writes and Load accepts.
// Version 2 added the accumulator RTT tallies (AccState.RTTSamples and
// friends); version 3 replaced the JSON document with the binary format;
// version 4 is the run body shared with the daemon (one DestRun per
// destination where version 3 had a health table and two hint arrays);
// version 5 writes interned hops as the accumulator stores them, one 8-byte
// cell each, without RTTs and IP IDs. Older files are refused, never resumed
// with silently wrong statistics.
const checkpointVersion = 5

// Checkpoint is a run's serialized resumable state: all of a streaming
// campaign's, and the body of the daemon's.
type Checkpoint struct {
	// Digest fingerprints the configuration that wrote the checkpoint
	// (RunDigest); Restore refuses a mismatch.
	Digest uint64
	// NextRound is the first round the resumed run will run; rounds
	// [0, NextRound) are fully folded into Workers.
	NextRound int
	// Transport is the opaque payload of Config.TransportState, which the
	// run persists but never interprets.
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
	// interleaved — in first-seen order.
	Routes []RouteCheckpoint
	// Cells holds the routes' hops as the accumulator stores them, one
	// 8-byte cell per hop (cell.go), route after route in Routes order. A
	// snapshot shares this array with the accumulator: read it, never
	// write it.
	Cells []uint64
	// LoopSigs and CycleSigs are the signature spans, sorted by address.
	LoopSigs  []SigCheckpoint `json:",omitempty"`
	CycleSigs []SigCheckpoint `json:",omitempty"`
}

// RouteCheckpoint is one interned route: its discipline and the route-level
// observables of tracer.Route.Equal (the destination is DestCheckpoint's).
type RouteCheckpoint struct {
	Classic bool `json:",omitempty"`
	Source  netip.Addr
	Halt    tracer.HaltReason
	// Hops counts the route's cells: the next Hops of DestCheckpoint.Cells.
	Hops int
}

// SigCheckpoint is one signature span.
type SigCheckpoint struct {
	Addr      netip.Addr
	LastRound int
	Rounds    int
}

// checkpoint snapshots the campaign after nextRound-1 completed. RunContext
// calls it only between rounds, where the wg.Wait edge makes the
// accumulators and the DestRuns quiescent.
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

// carve returns the next n elements of *buf, at exact capacity, and moves
// *buf past them: nil for n = 0.
func carve[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out
}

// sigCheckpoints copies signature spans, already sorted by address, into the
// next len(sigs) elements of *buf.
func sigCheckpoints(sigs []sigSpan, buf *[]SigCheckpoint) []SigCheckpoint {
	out := carve(buf, len(sigs))
	for i, sp := range sigs {
		out[i] = SigCheckpoint{Addr: sp.addr, LastRound: sp.lastRound, Rounds: sp.rounds}
	}
	return out
}

// checkpoint snapshots one destination's state: its routes in first-seen
// order over the cells as stored. Its routes and signature spans are carved
// from routes and sigs, shared by every destination of one State.
func (ds *destState) checkpoint(routes *[]RouteCheckpoint, sigs *[]SigCheckpoint) DestCheckpoint {
	dc := DestCheckpoint{
		Dest: ds.dest(), SawLoop: ds.sawLoop, SawCycle: ds.sawCycle,
		Cells:     ds.cells,
		Routes:    carve(routes, len(ds.classic)+len(ds.paris)),
		LoopSigs:  sigCheckpoints(ds.loopSigs, sigs),
		CycleSigs: sigCheckpoints(ds.cycleSigs, sigs),
	}
	for _, m := range [...]struct {
		memos   []routeMemo
		classic bool
	}{{ds.classic, true}, {ds.paris, false}} {
		for i := range m.memos {
			mo := &m.memos[i]
			rc := RouteCheckpoint{Classic: m.classic, Halt: tracer.HaltReason(mo.halt), Hops: int(mo.hops)}
			if mo.flags&memoSource != 0 {
				rc.Source = bitsAddr(mo.src)
			}
			dc.Routes[mo.seq] = rc
		}
	}
	return dc
}

// State snapshots the accumulator's partial statistics for serialization.
// The accumulator must be quiescent (no concurrent Fold or read); the
// snapshot is deterministic — address sets and destinations ascending,
// routes in first-seen order — so two equal accumulators serialize to
// identical bytes. It shares what the accumulator never writes again: the
// address sets are its sorted views and the Cells arrays its interned cells,
// so later folds cannot change a snapshot. The destinations' routes and
// signature spans are copied, into one array of each.
func (a *Accumulator) State() AccState {
	st := AccState{
		Routes: a.routes, Reached: a.reached, Responses: a.responses, MidStars: a.midStars,
		RoutesWithLoop: a.routesWithLoop, LoopInstances: a.loopInstances, ParisOnly: a.parisOnly,
		RoutesWithCycle: a.routesWithCycle, CycleInstances: a.cycleInstances,
		Failed: a.failed, Skipped: a.skipped,
		RTTSamples: a.rttSamples, RTTSum: a.rttSum, RTTMin: a.rttMin, RTTMax: a.rttMax,
		LoopByCause:  maps.Clone(a.loopByCause),
		CycleByCause: maps.Clone(a.cycleByCause),
		Addrs:        a.addrs.sorted(),
		LoopAddrs:    a.loopAddrs.sorted(),
		CycleAddrs:   a.cycleAddrs.sorted(),
		SkippedDests: a.skippedDests.sorted(),
	}
	dests := a.sortedDests()
	if len(dests) == 0 {
		return st
	}
	nr, ns := 0, 0
	for _, ds := range dests {
		nr += len(ds.classic) + len(ds.paris)
		ns += len(ds.loopSigs) + len(ds.cycleSigs)
	}
	routes, sigs := make([]RouteCheckpoint, nr), make([]SigCheckpoint, ns)
	st.Dests = make([]DestCheckpoint, len(dests))
	for i, ds := range dests {
		st.Dests[i] = ds.checkpoint(&routes, &sigs)
	}
	return st
}

// errCorrupt wraps ckpt.ErrCorrupt for a state no accumulator can have
// written.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("measure: checkpoint %w: "+format, append([]any{ckpt.ErrCorrupt}, args...)...)
}

// ascending reports whether the n addresses addr(0), ..., addr(n-1) are
// strictly ascending: a set or a sorted list, as State writes them.
func ascending(n int, addr func(int) netip.Addr) bool {
	for i := 1; i < n; i++ {
		if addr(i-1).Compare(addr(i)) >= 0 {
			return false
		}
	}
	return true
}

// RestoreAccumulator rebuilds one accumulator from a State snapshot: scalars
// load directly, and the ascending address sets and destination list become
// the accumulator's sorted views as they are (the accumulator adopts them,
// and the snapshot's Cells, so the caller must not write them afterwards);
// the memo and graph layers are rebuilt by replaying the interned routes, in
// first-seen order, through the same analysis code that built them
// originally, and the diamonds are counted. A snapshot no accumulator can
// have written — a set or list out of strictly ascending order, a
// non-canonical cell — is refused with ckpt.ErrCorrupt. Checkpoint.Restore
// calls it per accumulator.
func RestoreAccumulator(st AccState) (*Accumulator, error) {
	a := NewAccumulator()
	for _, s := range []struct {
		set   *addrSet
		addrs []netip.Addr
	}{{&a.addrs, st.Addrs}, {&a.loopAddrs, st.LoopAddrs}, {&a.cycleAddrs, st.CycleAddrs}, {&a.skippedDests, st.SkippedDests}} {
		if !ascending(len(s.addrs), func(i int) netip.Addr { return s.addrs[i] }) {
			return nil, errCorrupt("address set not strictly ascending")
		}
		s.set.view, s.set.read = s.addrs, true
		for _, ad := range s.addrs {
			s.set.has[ad] = struct{}{}
		}
	}
	if !ascending(len(st.Dests), func(i int) netip.Addr { return st.Dests[i].Dest }) {
		return nil, errCorrupt("destinations not strictly ascending")
	}
	a.routes, a.reached, a.responses, a.midStars = st.Routes, st.Reached, st.Responses, st.MidStars
	a.routesWithLoop, a.loopInstances, a.parisOnly = st.RoutesWithLoop, st.LoopInstances, st.ParisOnly
	a.routesWithCycle, a.cycleInstances = st.RoutesWithCycle, st.CycleInstances
	a.failed, a.skipped = st.Failed, st.Skipped
	a.rttSamples, a.rttSum, a.rttMin, a.rttMax = st.RTTSamples, st.RTTSum, st.RTTMin, st.RTTMax
	maps.Copy(a.loopByCause, st.LoopByCause)
	maps.Copy(a.cycleByCause, st.CycleByCause)
	var rt tracer.Route
	if len(st.Dests) > 0 {
		a.destView = make([]*destState, len(st.Dests))
	}
	for i := range st.Dests {
		dc := &st.Dests[i]
		ds, err := a.restoreDest(dc, &rt)
		if err != nil {
			return nil, fmt.Errorf("measure: checkpoint dest %v: %w", dc.Dest, err)
		}
		a.dests[dc.Dest], a.destView[i] = ds, ds
		if ds.sawLoop {
			a.destsWithLoop++
		}
		if ds.sawCycle {
			a.destsWithCycle++
		}
		a.loopSigs.addSpans(ds.loopSigs)
		a.cycleSigs.addSpans(ds.cycleSigs)
	}
	a.tallyDirty()
	return a, nil
}

// restoreDest rebuilds one destination: each route is materialized from its
// cells into rt, one reusable route, and interned through analyzeRoute, so
// the memos and graphs are rebuilt by the code that built them; the cells
// themselves are adopted as they are.
func (a *Accumulator) restoreDest(dc *DestCheckpoint, rt *tracer.Route) (*destState, error) {
	ds := newDestState(dc.Dest)
	ds.sawLoop, ds.sawCycle = dc.SawLoop, dc.SawCycle
	ds.cells = dc.Cells
	off := 0
	for i, rc := range dc.Routes {
		switch {
		case rc.Source.IsValid() && !rc.Source.Is4():
			return nil, errCorrupt("route %d: source %v is not an IPv4 address", i, rc.Source)
		case rc.Halt < 0 || rc.Halt > tracer.HaltMaxTTL:
			return nil, errCorrupt("route %d: halt reason %d", i, rc.Halt)
		case rc.Hops < 0 || rc.Hops > maxRouteHops || rc.Hops > len(dc.Cells)-off:
			return nil, errCorrupt("route %d: %d hops, %d cells left", i, rc.Hops, len(dc.Cells)-off)
		}
		*rt = tracer.Route{Dest: dc.Dest, Source: rc.Source, Halt: rc.Halt, Hops: rt.Hops[:0]}
		for k, c := range dc.Cells[off : off+rc.Hops] {
			if err := checkCell(c); err != nil {
				return nil, fmt.Errorf("route %d: hop %d: %w", i, k, err)
			}
			rt.Hops = append(rt.Hops, unpackHop(c))
		}
		memos := &ds.paris
		if rc.Classic {
			memos = &ds.classic
		}
		fp := rt.Fingerprint()
		at, found := searchMemo(*memos, fp)
		if found {
			return nil, errCorrupt("route %d collides with an earlier one", i)
		}
		ds.remember(memos, at, fp, rt, off, a.analyzeRoute(rt, rc.Classic, ds))
		off += rc.Hops
	}
	if off != len(dc.Cells) {
		return nil, errCorrupt("%d cells after the last route", len(dc.Cells)-off)
	}
	for _, s := range []struct {
		in  []SigCheckpoint
		out *[]sigSpan
	}{{dc.LoopSigs, &ds.loopSigs}, {dc.CycleSigs, &ds.cycleSigs}} {
		if !ascending(len(s.in), func(k int) netip.Addr { return s.in[k].Addr }) {
			return nil, errCorrupt("signatures not strictly ascending")
		}
		if len(s.in) > 0 {
			*s.out = make([]sigSpan, len(s.in))
			for k, sg := range s.in {
				(*s.out)[k] = sigSpan{addr: sg.Addr, lastRound: sg.LastRound, rounds: sg.Rounds}
			}
		}
	}
	return ds, nil
}

// Save streams the checkpoint to path in the binary format (see codec.go and
// docs/checkpoint.md) on the one atomic write path: temp file, fsync,
// rename, directory fsync, stale temp files swept. A kill mid-write leaves
// the previous checkpoint intact, and nothing checkpoint-sized is ever held
// in memory.
func (ck *Checkpoint) Save(path string) error {
	if err := ckpt.WriteFile(path, ckpt.KindCampaign, checkpointVersion, ck.Encode); err != nil {
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
	if err := ckpt.ReadFile(path, ckpt.KindCampaign, checkpointVersion, ck.Decode); err != nil {
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
	if err := ck.destsOwnedOnce(); err != nil {
		return nil, err
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

// destsOwnedOnce refuses a destination present in two accumulators — as a
// measured destination or a quarantined one — which no run can write: each
// destination belongs to one worker, and Merge would count it twice.
func (ck *Checkpoint) destsOwnedOnce() error {
	if len(ck.Workers) < 2 {
		return nil
	}
	owner := make(map[netip.Addr]int)
	claim := func(d netip.Addr, w int) error {
		if prev, seen := owner[d]; seen && prev != w {
			return errCorrupt("destination %v in accumulators %d and %d", d, prev, w)
		}
		owner[d] = w
		return nil
	}
	for w := range ck.Workers {
		st := &ck.Workers[w]
		for i := range st.Dests {
			if err := claim(st.Dests[i].Dest, w); err != nil {
				return err
			}
		}
		for _, d := range st.SkippedDests {
			if err := claim(d, w); err != nil {
				return err
			}
		}
	}
	return nil
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
