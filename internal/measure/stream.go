package measure

import (
	"net/netip"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/tracer"
)

// This file is the one statistics engine: an Accumulator folds completed
// pairs into partial Section 4 statistics the moment they are measured — the
// worker that traced a pair folds it before it traces the next, and a
// streaming one gives its routes back — so a campaign never has to retain
// its routes. Memory is O(destinations + unique routes) — independent of the
// round count — where retaining every Pair of every round costs
// O(destinations × rounds). What a destination costs: about 2.5 KB a dozen
// rounds into the default topology (the row measure/heap-per-dest of
// testdata/costs.txt holds it under 5 KB). Its eight or so interned routes
// are 32-byte memo headers over one array of 8-byte hop cells (cell.go) —
// about 90 hops, 0.7 KB, where a cloned tracer.Route spent 72 bytes a hop —
// and every per-destination table is a sorted slice, not a map; the rest is
// two diamond indexes of a few hundred bytes, each one sorted slice of
// 12-byte (head, tail, middle) address triples (anomaly.Graph). None of it
// but the rare loop and cycle lists holds a pointer for the collector to
// scan.
//
// The accumulator exploits round-over-round route stability by interning:
// each destination keeps its distinct routes keyed by tracer.Route
// fingerprint (verified field by field against the interned cells — Route.Equal
// in place — so a 64-bit collision can only cost speed, never correctness),
// and every interned route memoizes the work that depends on it alone —
// loop/cycle detection, response and mid-star tallies, reachability, its
// diamond-graph contribution. A stable path therefore costs two
// fingerprints, two in-place comparisons and a handful of counter
// increments per round, and no allocation.
//
// Fingerprints and equality deliberately ignore RTTs and response IP IDs:
// both change on every exchange even when the path did not (a responder's
// IP ID steps with the probe's index and moves with the round), and keying
// on them would make every round's route "unique", degrading memory right
// back to O(destinations × rounds). So the cells do not keep them either,
// and nothing read off a memo depends on them. What does is read off the
// folded pair itself: every pair is classified against its own classic
// route (two of the cause rules read its IP IDs, and only package anomaly
// knows which), and RTTs fold from it too (foldRTT). Classification only
// runs on a route with a loop or a cycle, a few in a hundred.

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

// sigSpan tracks one anomaly signature's observation rounds. Pairs for a
// destination arrive in nondecreasing round order (the accumulator
// contract), so counting distinct rounds needs only the last round seen.
type sigSpan struct {
	addr      netip.Addr
	lastRound int
	rounds    int
}

// destState is everything the accumulator keeps per destination: the
// interned routes, the incrementally grown diamond graphs, and the
// signature spans. Signatures are (address, destination) pairs, so keying
// the spans by address alone loses nothing. Every lookup table is a slice
// sorted by its key and searched by bisection: a handful of entries each,
// and no map's buckets or pointers.
type destState struct {
	classic, paris []routeMemo // by fingerprint
	// cells holds every interned route's hops, route after route in
	// first-seen order. It grows by replacement at exact length
	// (appendCells), so a destination keeps no spare capacity, and a cell
	// once stored is never rewritten, so Checkpoint.Encode can stream the
	// cells State noted after the accumulator has moved on.
	cells                    []uint64
	anoms                    []routeAnoms
	classicGraph, parisGraph anomaly.Graph
	loopSigs, cycleSigs      []sigSpan // by address
	// diamonds is the graphs' diamond tally as of the last count; dirty
	// marks a destination whose graphs grew since, listed in
	// Accumulator.dirty for the next read to recount.
	diamonds                 diamondTally
	sawLoop, sawCycle, dirty bool
}

// diamondTally is what Merge reads of a destination's diamond graphs: its
// classic diamonds, the per-flow ones among them, and its Paris diamonds.
type diamondTally struct{ total, perFlow, paris uint32 }

// diamondTotals sums diamond tallies: destinations with a classic diamond,
// classic diamonds, the per-flow ones among them, Paris diamonds.
type diamondTotals struct{ dests, total, perFlow, paris int }

// add adds sign times the tally t.
func (s *diamondTotals) add(t *diamondTally, sign int) {
	if t.total > 0 {
		s.dests += sign
	}
	s.total += sign * int(t.total)
	s.perFlow += sign * int(t.perFlow)
	s.paris += sign * int(t.paris)
}

// retally recounts the diamonds of ds, whose graphs have grown since its
// tally was taken, and moves the accumulator's totals with it.
func (a *Accumulator) retally(ds *destState) {
	a.diamonds.add(&ds.diamonds, -1)
	total, perFlow := ds.classicGraph.CountDiamonds(&ds.parisGraph)
	paris, _ := ds.parisGraph.CountDiamonds(nil)
	ds.diamonds = diamondTally{uint32(total), uint32(perFlow), uint32(paris)}
	ds.dirty = false
	a.diamonds.add(&ds.diamonds, 1)
}

// sigTotals sums a kind of signature span over an accumulator's
// destinations: the spans, those seen in one round, and their rounds.
type sigTotals struct{ spans, oneRound, rounds int }

// addSpans adds restored spans.
func (t *sigTotals) addSpans(sigs []sigSpan) {
	t.spans += len(sigs)
	for _, sp := range sigs {
		if sp.rounds == 1 {
			t.oneRound++
		}
		t.rounds += sp.rounds
	}
}

// addrSet is an address set that reads back ascending without a sort per
// read. Its view is ascending; an address first seen since the last read
// waits in fresh, and the next read sorts those and merges them into a new
// view (union: nothing outside the accumulator holds the old one). Until the first
// read every address is fresh, so fresh is not kept: that read sorts the
// whole set, as an accumulator read only at its end (a campaign's) needs.
type addrSet struct {
	has         map[netip.Addr]struct{}
	view, fresh []netip.Addr
	read        bool
}

func newAddrSet() addrSet { return addrSet{has: make(map[netip.Addr]struct{})} }

func (s *addrSet) add(ad netip.Addr) {
	// One map operation, not a lookup and then an insert: this runs for
	// every responding hop of every route seen for the first time.
	n := len(s.has)
	s.has[ad] = struct{}{}
	if len(s.has) > n && s.read {
		s.fresh = append(s.fresh, ad)
	}
}

// sorted merges the fresh addresses into the view and returns it.
func (s *addrSet) sorted() []netip.Addr {
	if !s.read {
		s.read = true
		s.fresh = make([]netip.Addr, 0, len(s.has))
		for ad := range s.has {
			s.fresh = append(s.fresh, ad)
		}
	}
	if len(s.fresh) > 0 {
		slices.SortFunc(s.fresh, netip.Addr.Compare)
		_, s.view = union(netip.Addr.Compare, true, s.view, s.fresh)
		s.fresh = nil
	}
	return s.view
}

// union counts the distinct elements of ascending lists (each without
// repeats) and, when keep is set, returns them ascending in a new array (nil
// when there are none) whose capacity is the lists' total length. It takes
// whole runs at a time: the list with the least head gives up every element
// below the other lists' heads, found by bisection, so one list is one copy
// and a few additions to a long list are a few bisections. It advances the
// lists it is given.
func union[T any](cmp func(T, T) int, keep bool, lists ...[]T) (n int, out []T) {
	if keep {
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		if total > 0 {
			out = make([]T, 0, total)
		}
	}
	for {
		least := -1
		for i, l := range lists {
			if len(l) > 0 && (least < 0 || cmp(l[0], lists[least][0]) < 0) {
				least = i
			}
		}
		if least < 0 {
			return n, out
		}
		run := lists[least]
		for i, l := range lists {
			if i != least && len(l) > 0 {
				k, _ := slices.BinarySearchFunc(run, l[0], cmp)
				run = run[:k]
			}
		}
		if len(run) == 0 {
			// Another list's head equals the least one: take it once.
			run = lists[least][:1]
			for i, l := range lists {
				if len(l) > 0 && cmp(l[0], run[0]) == 0 {
					lists[i] = l[1:]
				}
			}
		} else {
			lists[least] = lists[least][len(run):]
		}
		n += len(run)
		if keep {
			out = append(out, run...)
		}
	}
}

func compareDests(a, b *destState) int { return a.dest().Compare(b.dest()) }

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

// note records one observation of a signature in a round, and counts it in
// t; repeated instances in the same round collapse, so a signature counts
// the distinct rounds it was observed in.
func (t *sigTotals) note(sigs *[]sigSpan, addr netip.Addr, round int) {
	i, found := slices.BinarySearchFunc(*sigs, addr, func(sp sigSpan, a netip.Addr) int { return sp.addr.Compare(a) })
	if !found {
		*sigs = slices.Insert(*sigs, i, sigSpan{addr: addr, lastRound: round, rounds: 1})
		t.spans++
		t.oneRound++
		t.rounds++
		return
	}
	if sp := &(*sigs)[i]; sp.lastRound != round {
		sp.lastRound = round
		sp.rounds++
		t.rounds++
		if sp.rounds == 2 {
			t.oneRound--
		}
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
// ds.cells[off:] — at index i of memos, where its fingerprint fp sorts, and
// counts the bytes its header takes in a State body.
func (a *Accumulator) remember(ds *destState, memos *[]routeMemo, i int, fp uint64, rt *tracer.Route, off int, st routeStats) {
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
	a.memoBytes += mo.size()
}

// Accumulator folds completed pairs into partial campaign statistics. It is
// not safe for concurrent use, reads included: Merge and State bring its
// sorted views up to date (streaming the cells of a body State returned is
// not a read: Checkpoint.Encode may run concurrently with anything). A
// campaign gives each worker its own Accumulator, every destination's pairs
// flow through the single worker that owns it (in round order), and the
// partials meet only in Merge after the last round.
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

	addrs, loopAddrs, cycleAddrs addrSet

	dests map[netip.Addr]*destState
	// memoBytes is the length of every interned route's header in a State
	// body (routeMemo.size), so State sizes its head without a walk of
	// the memos.
	memoBytes int
	// destView holds the destinations ascending by address as of the last
	// read, and freshDests those first folded since (sortedDests).
	destView, freshDests []*destState

	// What Merge reads of the destinations, kept as running totals so that
	// a read walks none of them: those that ever showed a loop or a cycle,
	// the signature spans, and the diamond tallies. A destination whose
	// graphs grew since its tally was taken waits in dirty (tallyDirty).
	destsWithLoop, destsWithCycle int
	loopSigs, cycleSigs           sigTotals
	diamonds                      diamondTotals
	dirty                         []*destState

	// failed and skipped tally the error policy's non-measured pairs;
	// skippedDests marks destinations with at least one Skipped pair
	// (the quarantined set, derivable purely from the folded pairs, so
	// a merge or a restore needs nothing else).
	failed, skipped int
	skippedDests    addrSet
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		loopByCause:  make(map[anomaly.Cause]int),
		cycleByCause: make(map[anomaly.Cause]int),
		addrs:        newAddrSet(),
		loopAddrs:    newAddrSet(),
		cycleAddrs:   newAddrSet(),
		dests:        make(map[netip.Addr]*destState),
		skippedDests: newAddrSet(),
	}
}

// tallyDirty recounts the diamonds of every destination whose graphs grew
// since the last read.
func (a *Accumulator) tallyDirty() {
	for _, ds := range a.dirty {
		a.retally(ds)
	}
	a.dirty = a.dirty[:0]
}

// sortedDests merges the destinations first folded since the last read into
// the view and returns it.
func (a *Accumulator) sortedDests() []*destState {
	if len(a.freshDests) > 0 {
		slices.SortFunc(a.freshDests, compareDests)
		_, a.destView = union(compareDests, true, a.destView, a.freshDests)
		a.freshDests = nil
	}
	return a.destView
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
			a.addrs.add(h.Addr)
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
	}
	g := &ds.parisGraph
	if classic {
		g = &ds.classicGraph
	}
	// The graphs are insert-only sets: a graph that kept its size kept its
	// diamonds.
	n := g.Triples()
	g.Add(rt)
	if g.Triples() > n && !ds.dirty {
		ds.dirty = true
		a.dirty = append(a.dirty, ds)
	}
	return st
}

// intern returns rt's statistics and whether rt was already known: read off
// the memo when rt's fingerprint is interned with equal contents, otherwise
// analyzed and — the fingerprint being new — interned by packing rt's hops
// into the destination's cells (rt itself is never retained). A fingerprint
// collision (fingerprint present, contents unequal) and a route no memo
// holds (see packHop and representable) are analyzed and reported unknown:
// every side effect of analyzeRoute is idempotent, so correctness is
// unaffected.
func (a *Accumulator) intern(ds *destState, classic bool, rt *tracer.Route, fp uint64) (st routeStats, known bool) {
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
	st = a.analyzeRoute(rt, classic, ds)
	if !representable(rt, ds.dest()) {
		return st, false
	}
	off := len(ds.cells)
	cells, ok := appendCells(ds.cells, rt.Hops)
	if !ok {
		return st, false
	}
	ds.cells = cells
	a.remember(ds, memos, i, fp, rt, off, st)
	return st, false
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

// FoldResult is what Fold learned about the pair on the way: whether its
// Paris route is new to the destination — not already interned for it with
// equal contents, which a destination's first route, a fingerprint
// collision and a route no memo holds all are — and the loop and cycle
// instances on either route, all zero for a Failed or Skipped pair. Callers
// that react to a fold (the daemon's re-exploration and route-change
// events) work from it and need not read the routes again.
type FoldResult struct {
	NewParis      bool
	Loops, Cycles int
}

// Fold merges one completed pair into the partial statistics, attributing
// it to round p.Round. Pairs for one destination must all be folded into
// the same Accumulator in nondecreasing round order; pairs for different
// destinations may interleave arbitrarily. Fold never retains p or its
// routes — it copies what it keeps — so the caller may reuse or recycle them
// as soon as it returns. Fold is the one way a pair enters the statistics.
func (a *Accumulator) Fold(p *Pair) FoldResult {
	switch p.Outcome {
	case OutcomeFailed:
		// Nothing was measured: the pair counts toward the robustness
		// accounting and nowhere else.
		a.failed++
		return FoldResult{}
	case OutcomeSkipped:
		a.skipped++
		a.skippedDests.add(p.Dest)
		return FoldResult{}
	}
	ds := a.dests[p.Dest]
	if ds == nil {
		ds = newDestState(p.Dest)
		a.dests[p.Dest] = ds
		a.freshDests = append(a.freshDests, ds)
	}

	cs, _ := a.intern(ds, true, p.Classic, p.Classic.Fingerprint())
	ps, pknown := a.intern(ds, false, p.Paris, p.Paris.Fingerprint())

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
		if !ds.sawLoop {
			ds.sawLoop = true
			a.destsWithLoop++
		}
	}
	for _, l := range cs.loops {
		a.loopInstances++
		a.loopAddrs.add(l.Addr)
		a.loopByCause[anomaly.ClassifyLoopDetected(l, p.Classic, ps.loops)]++
		a.loopSigs.note(&ds.loopSigs, l.Addr, p.Round)
	}
	a.parisOnly += anomaly.ParisOnly(cs.loops, ps.loops)

	if len(cs.cycles) > 0 {
		a.routesWithCycle++
		if !ds.sawCycle {
			ds.sawCycle = true
			a.destsWithCycle++
		}
	}
	for _, c := range cs.cycles {
		a.cycleInstances++
		a.cycleAddrs.add(c.Addr)
		a.cycleByCause[anomaly.ClassifyCycleDetected(c, p.Classic, ps.cycles)]++
		a.cycleSigs.note(&ds.cycleSigs, c.Addr, p.Round)
	}
	return FoldResult{
		NewParis: !pknown,
		Loops:    len(cs.loops) + len(ps.loops),
		Cycles:   len(cs.cycles) + len(ps.cycles),
	}
}

// Merge combines per-shard accumulators into the campaign-wide Stats.
// rounds and dests are the campaign dimensions (per-accumulator
// counts cannot reconstruct them). Every merged quantity is a sum or a set
// union and each destination lives in exactly one accumulator, so the
// result is independent of accumulator order; AllAddresses is ascending,
// making the whole Stats deterministic. Merge reads each accumulator's
// sorted address views and running totals, so what it costs beyond the
// address union is what was folded since the last read: newly seen
// addresses are merged into the views, and only destinations whose graphs
// grew have their diamonds recounted.
func Merge(rounds, dests int, accs ...*Accumulator) *Stats {
	s := &Stats{
		Rounds: rounds,
		Dests:  dests,
		Loops:  LoopStats{ByCause: make(map[anomaly.Cause]int)},
		Cycles: CycleStats{ByCause: make(map[anomaly.Cause]int)},
	}
	var addrs, loopAddrs, cycleAddrs [][]netip.Addr
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
		s.Robust.QuarantinedDests += len(a.skippedDests.has)

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
		addrs = append(addrs, a.addrs.sorted())
		loopAddrs = append(loopAddrs, a.loopAddrs.sorted())
		cycleAddrs = append(cycleAddrs, a.cycleAddrs.sorted())

		a.tallyDirty()
		s.Loops.DestsWithLoop += a.destsWithLoop
		s.Cycles.DestsWithCycle += a.destsWithCycle
		s.Loops.Signatures += a.loopSigs.spans
		s.Loops.OneRoundSignatures += a.loopSigs.oneRound
		s.Cycles.Signatures += a.cycleSigs.spans
		s.Cycles.OneRoundSignatures += a.cycleSigs.oneRound
		cycleRounds += a.cycleSigs.rounds
		s.Diamonds.DestsWithDiamond += a.diamonds.dests
		s.Diamonds.Total += a.diamonds.total
		s.Diamonds.PerFlow += a.diamonds.perFlow
		s.Diamonds.ParisTotal += a.diamonds.paris
	}
	s.AddrsSeen, s.AllAddresses = union(netip.Addr.Compare, true, addrs...)
	s.Loops.AddrsInLoop, _ = union(netip.Addr.Compare, false, loopAddrs...)
	s.Cycles.AddrsInCycle, _ = union(netip.Addr.Compare, false, cycleAddrs...)
	s.Robust.Probed = s.Routes
	if s.Routes > 0 {
		s.ReachedPct = pct(reached, s.Routes)
	}
	if s.Cycles.Signatures > 0 {
		s.Cycles.MeanRoundsPerSignature = float64(cycleRounds) / float64(s.Cycles.Signatures)
	}
	return s
}
