package measure

import (
	"net/netip"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/tracer"
)

// This file is the streaming statistics engine: an Accumulator folds
// completed pairs into partial Section 4 statistics the moment they are
// measured, so a campaign never has to retain its routes. Memory is
// O(destinations + unique routes) — independent of the round count — where
// the old materialize-then-Analyze pipeline held every Pair of every round
// (O(destinations × rounds)). What a destination costs: about 2.7 KB a dozen
// rounds into the default topology (TestAccumulatorHeapPerDest holds it under
// 5 KB). Its eight or so interned routes are 32-byte memo headers over one
// array of 8-byte hop cells (cell.go) — about 90 hops, 0.7 KB, where a cloned
// tracer.Route spent 72 bytes a hop — and every per-destination table is a
// sorted slice, not a map; the rest is two diamond indexes of a few hundred
// bytes, each one sorted slice of 12-byte (head, tail, middle) address
// triples (anomaly.Graph). None of it but the rare loop and cycle lists holds
// a pointer for the collector to scan.
//
// The accumulator exploits round-over-round route stability by interning:
// each destination keeps its distinct routes keyed by tracer.Route
// fingerprint (verified field by field against the interned cells — Route.Equal
// in place — so a 64-bit collision can only cost speed, never correctness),
// and every interned route memoizes the work that depends on it alone —
// loop/cycle detection, response and mid-star tallies, reachability, its
// diamond-graph contribution. Classification, which differences the classic
// route against its paired Paris route, is memoized per (classic, paris)
// fingerprint combination. A stable path therefore costs two fingerprints,
// two in-place comparisons and a handful of counter increments per round —
// zero anomaly work, zero allocations.
//
// Fingerprints and equality deliberately ignore RTTs and response IP IDs:
// both change on every exchange even when the path did not (each
// responder's IP ID counter advances per reply), and keying on them would
// make every round's route "unique", degrading memory right back to
// O(destinations × rounds). So the cells do not keep them either. The only
// two classification rules that read IP IDs — the zero-TTL loop check and
// periodic-cycle counter coherence — are gated on path-stable patterns
// (quoted-TTL 0-then-1, periodicity), so Fold re-evaluates exactly those
// instances against the current round's route and reuses the memoized cause
// everywhere else; RTTs fold from the current pair too (foldRTT).

// routeMemo is one interned measured route: a pointer-free header over the
// route's hop cells (cell.go) in its destination's cell array, plus what the
// statistics need from that route alone, computed once when first seen. The
// destination, the fingerprint, the cells and the header are all of
// Route.Equal's observables, so a memo can be compared against a folded
// route in place and materialized back into one (a restore does).
type routeMemo struct {
	fp uint64
	// off is the route's first cell in destState.cells.
	off uint32
	// src is the source address (addrBits), when memoSource is set.
	src uint32
	// seq is the memo's intern order within its destination, so checkpoint
	// serialization can replay routes in first-seen order and produce
	// byte-identical files run over run. Cells are stored in seq order.
	seq uint32
	// anoms is 1 + the index of the route's loops and cycles in
	// destState.anoms, or 0: most routes have neither.
	anoms     uint32
	hops      uint16
	responses uint16
	midStars  uint16
	halt      uint8
	flags     uint8
}

// memoSource marks a route with a source address.
const memoSource uint8 = 1

// maxRouteHops is the longest route a memo's hop count holds.
const maxRouteHops = 1<<16 - 1

// routeAnoms is a route's detected loops and cycles, kept off the memo
// header.
type routeAnoms struct {
	loops  []anomaly.Loop
	cycles []anomaly.Cycle
}

// routeStats is what a fold reads of one route, memoized or not.
type routeStats struct {
	loops     []anomaly.Loop
	cycles    []anomaly.Cycle
	responses int
	midStars  int
	reached   bool
}

// pairMemo is the memoized cross-route classification for one (classic,
// paris) fingerprint combination. It is only kept after both routes interned
// cleanly, so within one destination the fingerprints identify the routes
// uniquely.
type pairMemo struct {
	classic, paris uint64
	// causes is the offset in destState.causes of the classic route's loop
	// causes, followed by its cycle causes (lined up with its loops and
	// cycles).
	causes    uint32
	parisOnly uint32
}

// sigSpan tracks one anomaly signature's observation rounds. Pairs for a
// destination arrive in nondecreasing round order (the accumulator
// contract), so counting distinct rounds needs only the last round seen.
type sigSpan struct {
	addr      netip.Addr
	lastRound int
	rounds    int
}

// destState is everything the accumulator keeps per destination: the
// interned routes and pair classifications, the incrementally grown diamond
// graphs, and the signature spans. Signatures are (address, destination)
// pairs, so keying the spans by address alone loses nothing. Every lookup
// table is a slice sorted by its key and searched by bisection: a handful of
// entries each, and no map's buckets or pointers.
type destState struct {
	classic, paris []routeMemo // by fingerprint
	// cells holds every interned route's hops, route after route in
	// first-seen order. It is only ever replaced, never written in place,
	// so a snapshot (State) may share it.
	cells                    []uint64
	anoms                    []routeAnoms
	pairs                    []pairMemo // by (classic, paris)
	causes                   []anomaly.Cause
	classicGraph, parisGraph anomaly.Graph
	loopSigs, cycleSigs      []sigSpan // by address
	sawLoop, sawCycle        bool
}

func newDestState(dest netip.Addr) *destState {
	return &destState{classicGraph: anomaly.Graph{Dest: dest}, parisGraph: anomaly.Graph{Dest: dest}}
}

func (ds *destState) dest() netip.Addr { return ds.classicGraph.Dest }

// searchMemo returns where fp sorts in ms and whether it is there.
func searchMemo(ms []routeMemo, fp uint64) (int, bool) {
	lo, hi := 0, len(ms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ms[m].fp < fp {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ms) && ms[lo].fp == fp
}

// searchPair returns where (classic, paris) sorts in ps and whether it is
// there.
func searchPair(ps []pairMemo, classic, paris uint64) (int, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p := &ps[m]; p.classic < classic || p.classic == classic && p.paris < paris {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ps) && ps[lo].classic == classic && ps[lo].paris == paris
}

// note records one observation of a signature in a round; repeated
// instances in the same round collapse, matching the per-round signature
// sets Analyze historically kept.
func note(sigs *[]sigSpan, addr netip.Addr, round int) {
	i, found := slices.BinarySearchFunc(*sigs, addr, func(sp sigSpan, a netip.Addr) int { return sp.addr.Compare(a) })
	if !found {
		*sigs = slices.Insert(*sigs, i, sigSpan{addr: addr, lastRound: round, rounds: 1})
		return
	}
	if sp := &(*sigs)[i]; sp.lastRound != round {
		sp.lastRound = round
		sp.rounds++
	}
}

// stats reads a memo's statistics.
func (ds *destState) stats(mo *routeMemo) routeStats {
	st := routeStats{
		responses: int(mo.responses),
		midStars:  int(mo.midStars),
		reached:   tracer.HaltReason(mo.halt) == tracer.HaltDestination,
	}
	if mo.anoms > 0 {
		an := &ds.anoms[mo.anoms-1]
		st.loops, st.cycles = an.loops, an.cycles
	}
	return st
}

// matches is Route.Equal between rt and the route mo interned, read off the
// header and the cells in place.
func (ds *destState) matches(mo *routeMemo, rt *tracer.Route) bool {
	if len(rt.Hops) != int(mo.hops) || rt.Halt != tracer.HaltReason(mo.halt) || rt.Dest != ds.dest() {
		return false
	}
	if mo.flags&memoSource == 0 {
		if rt.Source.IsValid() {
			return false
		}
	} else if !rt.Source.Is4() || addrBits(rt.Source) != mo.src {
		return false
	}
	cells := ds.cells[mo.off : int(mo.off)+len(rt.Hops)]
	for i := range rt.Hops {
		if c, ok := packHop(&rt.Hops[i]); !ok || c != cells[i] {
			return false
		}
	}
	return true
}

// representable reports whether a memo header holds rt's route-level
// observables for destination dest (packHop judges the hops).
func representable(rt *tracer.Route, dest netip.Addr) bool {
	return rt.Dest == dest && (!rt.Source.IsValid() || rt.Source.Is4()) &&
		rt.Halt >= 0 && rt.Halt <= tracer.HaltMaxTTL && len(rt.Hops) <= maxRouteHops
}

// appendCells returns cells followed by the cells of hops, in a new array of
// exactly that length, or false (and cells) when a hop has no canonical cell.
func appendCells(cells []uint64, hops []tracer.Hop) ([]uint64, bool) {
	out := make([]uint64, len(cells), len(cells)+len(hops))
	copy(out, cells)
	for i := range hops {
		c, ok := packHop(&hops[i])
		if !ok {
			return cells, false
		}
		out = append(out, c)
	}
	return out, true
}

// remember inserts the memo of rt — analyzed as st, its cells already at
// ds.cells[off:] — at index i of memos, where its fingerprint fp sorts.
func (ds *destState) remember(memos *[]routeMemo, i int, fp uint64, rt *tracer.Route, off int, st routeStats) {
	mo := routeMemo{
		fp:        fp,
		off:       uint32(off),
		seq:       uint32(len(ds.classic) + len(ds.paris)),
		hops:      uint16(len(rt.Hops)),
		responses: uint16(st.responses),
		midStars:  uint16(st.midStars),
		halt:      uint8(rt.Halt),
	}
	if rt.Source.IsValid() {
		mo.src, mo.flags = addrBits(rt.Source), memoSource
	}
	if len(st.loops)+len(st.cycles) > 0 {
		ds.anoms = append(ds.anoms, routeAnoms{loops: st.loops, cycles: st.cycles})
		mo.anoms = uint32(len(ds.anoms))
	}
	*memos = slices.Insert(*memos, i, mo)
}

// foldEvery is the per-worker fold-batch size of the streaming campaign:
// completed pairs stage in a small ring and fold K at a time, so the
// accumulator's interning maps are walked in bursts while hot instead of
// once per trace while cold. This closes the small-study locality gap the
// ROADMAP tracked (fold-as-you-go cost ~13% extra wall at small round
// counts) without changing a single statistic: batching only defers folds,
// it never reorders them, so the per-destination nondecreasing-round
// contract — and with it byte-identical Stats — holds for every K
// (TestCampaignStreamInvarianceFoldEvery pins K=1 against 2, 16 and 1<<20
// through Campaign.foldEvery), which is why K is not an option.
const foldEvery = 16

// foldRing is one worker's staging buffer: completed pairs folded every at
// a time, in completion order, into the worker's accumulator, their routes
// then given back to the worker's Prober. A ring belongs to exactly one
// worker across all rounds (the same ownership rule as the accumulator and
// the Prober it joins) and must be flushed before Merge reads partials.
type foldRing struct {
	acc    *Accumulator
	prober *Prober
	every  int
	buf    []Pair
}

// push stages one completed pair, folding the whole ring once every are
// waiting.
func (r *foldRing) push(p Pair) {
	r.buf = append(r.buf, p)
	if len(r.buf) >= r.every {
		r.flush()
	}
}

// flush folds every staged pair, in order, and empties the ring. Fold keeps
// nothing of a pair's routes, so each goes back to the Prober that traced it
// the moment its pair is folded: the next traces refill those routes, and a
// steady-state round allocates none.
func (r *foldRing) flush() {
	for i := range r.buf {
		r.acc.Fold(&r.buf[i])
		r.prober.Recycle(&r.buf[i])
	}
	r.buf = r.buf[:0]
}

// Accumulator folds completed pairs into partial campaign statistics. It is
// not safe for concurrent use: a streaming campaign gives each worker its
// own Accumulator, every destination's pairs flow through the single worker
// that owns it (in round order), and the partials meet only in Merge after
// the last round. Analyze folds retained results through one, serially.
type Accumulator struct {
	routes, reached, responses, midStars int

	// Hop RTT tallies. Folded per pair per round — never memoized with
	// the route, since RTTs vary round over round even on a stable path
	// (interning equality deliberately ignores them). Integer sums keep
	// the fold order-independent, so Merge stays schedule-invariant.
	rttSamples     int
	rttSum         int64
	rttMin, rttMax int64

	routesWithLoop, loopInstances, parisOnly int
	routesWithCycle, cycleInstances          int
	loopByCause, cycleByCause                map[anomaly.Cause]int

	addrs, loopAddrs, cycleAddrs map[netip.Addr]bool

	dests map[netip.Addr]*destState

	// failed and skipped tally the error policy's non-measured pairs;
	// skippedDests marks destinations with at least one Skipped pair
	// (the quarantined set, derivable purely from the folded pairs so
	// streaming and Analyze stay byte-identical).
	failed, skipped int
	skippedDests    map[netip.Addr]bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		loopByCause:  make(map[anomaly.Cause]int),
		cycleByCause: make(map[anomaly.Cause]int),
		addrs:        make(map[netip.Addr]bool),
		loopAddrs:    make(map[netip.Addr]bool),
		cycleAddrs:   make(map[netip.Addr]bool),
		dests:        make(map[netip.Addr]*destState),
		skippedDests: make(map[netip.Addr]bool),
	}
}

// analyzeRoute computes one route's statistics from scratch: detection,
// response and mid-star tallies (mid-stars are a classic-route statistic),
// address bookkeeping, and the route's diamond-graph contribution.
func (a *Accumulator) analyzeRoute(rt *tracer.Route, classic bool, ds *destState) routeStats {
	st := routeStats{
		loops:   anomaly.FindLoops(rt),
		cycles:  anomaly.FindCycles(rt),
		reached: rt.Reached(),
	}
	lastResp := -1
	for i, h := range rt.Hops {
		if !h.Star() {
			lastResp = i
			st.responses++
			a.addrs[h.Addr] = true
		}
	}
	if classic {
		// Stars count as "mid" only when a response follows later in the
		// route — trailing stars are the normal end-of-trace pattern
		// (Section 3).
		for i, h := range rt.Hops {
			if h.Star() && i < lastResp {
				st.midStars++
			}
		}
		ds.classicGraph.Add(rt)
	} else {
		ds.parisGraph.Add(rt)
	}
	return st
}

// intern returns rt's statistics and whether they are memoized: read off the
// memo when rt's fingerprint is interned with equal contents, otherwise
// analyzed and — the fingerprint being new — interned by packing rt's hops
// into the destination's cells (rt itself is never retained). It reports
// false for a fingerprint collision (fingerprint present, contents unequal)
// and for a route no memo holds (see packHop and representable); the caller
// then classifies the pair without memoization — every side effect of
// analyzeRoute is idempotent, so correctness is unaffected.
func (a *Accumulator) intern(ds *destState, classic bool, rt *tracer.Route, fp uint64) (routeStats, bool) {
	memos := &ds.paris
	if classic {
		memos = &ds.classic
	}
	i, found := searchMemo(*memos, fp)
	if found {
		if mo := &(*memos)[i]; ds.matches(mo, rt) {
			return ds.stats(mo), true
		}
		return a.analyzeRoute(rt, classic, ds), false
	}
	st := a.analyzeRoute(rt, classic, ds)
	if !representable(rt, ds.dest()) {
		return st, false
	}
	off := len(ds.cells)
	cells, ok := appendCells(ds.cells, rt.Hops)
	if !ok {
		return st, false
	}
	ds.cells = cells
	ds.remember(memos, i, fp, rt, off, st)
	return st, true
}

// classify returns the pair's loop and cycle causes and its Paris-only loop
// count: memoized per fingerprint combination when both routes interned,
// computed afresh otherwise. The classifier reads the classic route's hops,
// and the folded route is Equal to the interned one; the only observables
// Equal ignores that a rule reads are IP IDs, and Fold re-evaluates those
// rules against the folded route every time.
func (ds *destState) classify(cs, ps *routeStats, classic *tracer.Route, cfp, pfp uint64, memoable bool) (loopCauses, cycleCauses []anomaly.Cause, parisOnly int) {
	var i int
	if memoable {
		var found bool
		if i, found = searchPair(ds.pairs, cfp, pfp); found {
			pm := &ds.pairs[i]
			nl := len(cs.loops)
			causes := ds.causes[pm.causes : int(pm.causes)+nl+len(cs.cycles)]
			return causes[:nl], causes[nl:], int(pm.parisOnly)
		}
	}
	pc := anomaly.ClassifyPairDetected(cs.loops, cs.cycles, ps.loops, ps.cycles, classic, true)
	if memoable {
		off := len(ds.causes)
		ds.causes = append(append(ds.causes, pc.LoopCauses...), pc.CycleCauses...)
		ds.pairs = slices.Insert(ds.pairs, i, pairMemo{classic: cfp, paris: pfp, causes: uint32(off), parisOnly: uint32(pc.ParisOnly)})
	}
	return pc.LoopCauses, pc.CycleCauses, pc.ParisOnly
}

// foldRTT tallies one route's hop round-trip times. Unlike the memoized
// per-route statistics this runs on every folded pair: RTTs change round
// over round even when the path is stable (the exact property interning
// equality ignores). Hops without an RTT — stars, or transports that
// report none — contribute nothing.
func (a *Accumulator) foldRTT(rt *tracer.Route) {
	for _, h := range rt.Hops {
		if h.Star() || h.RTT <= 0 {
			continue
		}
		ns := int64(h.RTT)
		a.rttSum += ns
		a.rttSamples++
		if a.rttMin == 0 || ns < a.rttMin {
			a.rttMin = ns
		}
		if ns > a.rttMax {
			a.rttMax = ns
		}
	}
}

// FoldResult is what Fold learned about the pair on the way: the two route
// fingerprints and the loop and cycle instances on either route, all zero for
// a Failed or Skipped pair. Callers that react to a fold (the daemon's
// route-change events) work from it and need not read the routes again.
type FoldResult struct {
	Paris, Classic uint64
	Loops, Cycles  int
}

// Fold merges one completed pair into the partial statistics, attributing
// it to round p.Round. Pairs for one destination must all be folded into
// the same Accumulator in nondecreasing round order; pairs for different
// destinations may interleave arbitrarily. Fold never retains p or its
// routes — it copies what it keeps — so the caller may reuse or recycle them
// as soon as it returns.
func (a *Accumulator) Fold(p *Pair) FoldResult { return a.foldAt(p, p.Round) }

// foldAt is Fold with the round attribution explicit: Analyze passes the
// round slice index, so hand-built Results are counted the way they always
// were even when the Pair.Round fields were never populated.
func (a *Accumulator) foldAt(p *Pair, round int) FoldResult {
	switch p.Outcome {
	case OutcomeFailed:
		// Nothing was measured: the pair counts toward the robustness
		// accounting and nowhere else.
		a.failed++
		return FoldResult{}
	case OutcomeSkipped:
		a.skipped++
		a.skippedDests[p.Dest] = true
		return FoldResult{}
	}
	ds := a.dests[p.Dest]
	if ds == nil {
		ds = newDestState(p.Dest)
		a.dests[p.Dest] = ds
	}

	cfp := p.Classic.Fingerprint()
	pfp := p.Paris.Fingerprint()
	cs, cok := a.intern(ds, true, p.Classic, cfp)
	ps, pok := a.intern(ds, false, p.Paris, pfp)
	loopCauses, cycleCauses, parisOnly := ds.classify(&cs, &ps, p.Classic, cfp, pfp, cok && pok)

	a.routes++
	if cs.reached {
		a.reached++
	}
	a.responses += cs.responses + ps.responses
	a.midStars += cs.midStars
	a.foldRTT(p.Classic)
	a.foldRTT(p.Paris)

	if len(cs.loops) > 0 {
		a.routesWithLoop++
		ds.sawLoop = true
	}
	for i, l := range cs.loops {
		a.loopInstances++
		a.loopAddrs[l.Addr] = true
		cause := loopCauses[i]
		if anomaly.LoopConsultsIPID(l, p.Classic) {
			// The zero-TTL rule reads IP IDs, the one loop observable
			// excluded from interning equality; re-evaluate against this
			// round's route. The quoted-TTL pattern gating this is rare,
			// so stable paths still skip all classification work.
			cause = anomaly.ClassifyLoopDetected(l, p.Classic, ps.loops, true)
		}
		a.loopByCause[cause]++
		note(&ds.loopSigs, l.Addr, round)
	}
	a.parisOnly += parisOnly

	if len(cs.cycles) > 0 {
		a.routesWithCycle++
		ds.sawCycle = true
	}
	for i, c := range cs.cycles {
		a.cycleInstances++
		a.cycleAddrs[c.Addr] = true
		cause := cycleCauses[i]
		if anomaly.CycleConsultsIPID(c) {
			// Periodic cycles check IP ID coherence per round (Section
			// 4.2.1) — same reasoning as the loop override above.
			cause = anomaly.ClassifyCycleDetected(c, p.Classic, ps.cycles, true)
		}
		a.cycleByCause[cause]++
		note(&ds.cycleSigs, c.Addr, round)
	}
	return FoldResult{
		Paris: pfp, Classic: cfp,
		Loops:  len(cs.loops) + len(ps.loops),
		Cycles: len(cs.cycles) + len(ps.cycles),
	}
}

// Merge combines per-worker accumulators into the campaign-wide Stats —
// the same struct Analyze produces over retained results (they share this
// code). rounds and dests are the campaign dimensions (per-accumulator
// counts cannot reconstruct them). Every merged quantity is a sum or a set
// union and each destination lives in exactly one accumulator, so the
// result is independent of both accumulator order and map iteration order;
// AllAddresses is sorted, making the whole Stats deterministic.
func Merge(rounds, dests int, accs ...*Accumulator) *Stats {
	s := &Stats{
		Rounds: rounds,
		Dests:  dests,
		Loops:  LoopStats{ByCause: make(map[anomaly.Cause]int)},
		Cycles: CycleStats{ByCause: make(map[anomaly.Cause]int)},
	}
	addrs := make(map[netip.Addr]bool)
	loopAddrs := make(map[netip.Addr]bool)
	cycleAddrs := make(map[netip.Addr]bool)
	reached := 0
	cycleRounds := 0
	for _, a := range accs {
		if a == nil {
			continue
		}
		s.Routes += a.routes
		reached += a.reached
		s.Responses += a.responses
		s.MidStars += a.midStars
		s.RTT.Samples += a.rttSamples
		s.RTT.SumNs += a.rttSum
		if a.rttSamples > 0 {
			if s.RTT.MinNs == 0 || a.rttMin < s.RTT.MinNs {
				s.RTT.MinNs = a.rttMin
			}
			if a.rttMax > s.RTT.MaxNs {
				s.RTT.MaxNs = a.rttMax
			}
		}
		s.Robust.Failed += a.failed
		s.Robust.Skipped += a.skipped
		s.Robust.QuarantinedDests += len(a.skippedDests)

		s.Loops.Instances += a.loopInstances
		s.Loops.RoutesWithLoop += a.routesWithLoop
		s.Loops.ParisOnly += a.parisOnly
		s.Cycles.Instances += a.cycleInstances
		s.Cycles.RoutesWithCycle += a.routesWithCycle
		for c, n := range a.loopByCause {
			s.Loops.ByCause[c] += n
		}
		for c, n := range a.cycleByCause {
			s.Cycles.ByCause[c] += n
		}
		for ad := range a.addrs {
			addrs[ad] = true
		}
		for ad := range a.loopAddrs {
			loopAddrs[ad] = true
		}
		for ad := range a.cycleAddrs {
			cycleAddrs[ad] = true
		}

		for _, ds := range a.dests {
			if ds.sawLoop {
				s.Loops.DestsWithLoop++
			}
			if ds.sawCycle {
				s.Cycles.DestsWithCycle++
			}
			s.Loops.Signatures += len(ds.loopSigs)
			for _, sp := range ds.loopSigs {
				if sp.rounds == 1 {
					s.Loops.OneRoundSignatures++
				}
			}
			s.Cycles.Signatures += len(ds.cycleSigs)
			for _, sp := range ds.cycleSigs {
				if sp.rounds == 1 {
					s.Cycles.OneRoundSignatures++
				}
				cycleRounds += sp.rounds
			}
			dd := ds.classicGraph.Diamonds()
			if len(dd) > 0 {
				s.Diamonds.DestsWithDiamond++
			}
			s.Diamonds.Total += len(dd)
			for _, d := range dd {
				if anomaly.ClassifyDiamond(d, &ds.parisGraph) == anomaly.CausePerFlowLB {
					s.Diamonds.PerFlow++
				}
			}
			s.Diamonds.ParisTotal += len(ds.parisGraph.Diamonds())
		}
	}
	s.AddrsSeen = len(addrs)
	if len(addrs) > 0 {
		s.AllAddresses = make([]netip.Addr, 0, len(addrs))
		for ad := range addrs {
			s.AllAddresses = append(s.AllAddresses, ad)
		}
		slices.SortFunc(s.AllAddresses, netip.Addr.Compare)
	}
	s.Loops.AddrsInLoop = len(loopAddrs)
	s.Cycles.AddrsInCycle = len(cycleAddrs)
	s.Robust.Probed = s.Routes
	if s.Routes > 0 {
		s.ReachedPct = pct(reached, s.Routes)
	}
	if s.Cycles.Signatures > 0 {
		s.Cycles.MeanRoundsPerSignature = float64(cycleRounds) / float64(s.Cycles.Signatures)
	}
	return s
}
