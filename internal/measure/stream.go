package measure

import (
	"net/netip"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/tracer"
)

// This file is the streaming statistics engine: an Accumulator folds
// completed pairs into partial Section 4 statistics the moment they are
// measured, so a campaign never has to retain its routes. Memory is
// O(destinations + unique routes) — independent of the round count — where
// the old materialize-then-Analyze pipeline held every Pair of every round
// (O(destinations × rounds)). What a destination costs: about 11 KB a dozen
// rounds into the default topology (TestAccumulatorHeapPerDest holds it under
// 16 KB), three quarters of it its eight or so interned routes at 72 bytes a
// hop; the rest is the five maps of its destState, the pair memos, and two
// diamond indexes of a few hundred bytes — each is one sorted slice of
// 12-byte (head, tail, middle) address triples with no pointer in it
// (anomaly.Graph), not a map per address.
//
// The accumulator exploits round-over-round route stability by interning:
// each destination keeps its distinct routes keyed by tracer.Route
// fingerprint (verified with Route.Equal against the canonical object, so a
// 64-bit collision can only cost speed, never correctness), and every
// interned route memoizes the work that depends on it alone — loop/cycle
// detection, response and mid-star tallies, reachability, its diamond-graph
// contribution. Classification, which differences the classic route against
// its paired Paris route, is memoized per (classic, paris) fingerprint
// combination. A stable path therefore costs two fingerprints, two equality
// checks and a handful of counter increments per round — zero anomaly work.
//
// Fingerprints and equality deliberately ignore RTTs and response IP IDs:
// both change on every exchange even when the path did not (each
// responder's IP ID counter advances per reply), and keying on them would
// make every round's route "unique", degrading memory right back to
// O(destinations × rounds). The only two classification rules that read IP
// IDs — the zero-TTL loop check and periodic-cycle counter coherence — are
// gated on path-stable patterns (quoted-TTL 0-then-1, periodicity), so
// Fold re-evaluates exactly those instances against the current round's
// route and reuses the memoized cause everywhere else.

// routeMemo is one interned measured route: the accumulator's own copy of
// the first route seen with its fingerprint (tracer.Route.Clone: every slice
// at its exact length, nothing shared with the folded route) plus everything
// the statistics need from that route alone, computed once when first seen.
type routeMemo struct {
	rt        *tracer.Route
	loops     []anomaly.Loop
	cycles    []anomaly.Cycle
	responses int
	midStars  int
	reached   bool
	// seq is the memo's intern order within its destination, so checkpoint
	// serialization can replay routes in first-seen order and produce
	// byte-identical files run over run.
	seq int
}

// pairKey identifies a (classic, paris) route combination by the two
// fingerprints. It is only consulted after both routes interned cleanly, so
// within one destination the fingerprints identify the routes uniquely.
type pairKey struct{ classic, paris uint64 }

// pairMemo is the memoized cross-route classification for one pairKey; the
// cause slices line up with the classic memo's loops and cycles.
type pairMemo struct {
	loopCauses  []anomaly.Cause
	cycleCauses []anomaly.Cause
	parisOnly   int
}

// sigSpan tracks one anomaly signature's observation rounds. Pairs for a
// destination arrive in nondecreasing round order (the accumulator
// contract), so counting distinct rounds needs only the last round seen.
type sigSpan struct {
	lastRound int
	rounds    int
}

// destState is everything the accumulator keeps per destination: the
// interned routes and pair classifications, the incrementally grown diamond
// graphs, and the signature spans. Signatures are (address, destination)
// pairs, so keying the span maps by address alone loses nothing.
type destState struct {
	classic, paris           map[uint64]*routeMemo
	pairs                    map[pairKey]*pairMemo
	classicGraph, parisGraph *anomaly.Graph
	loopSigs, cycleSigs      map[netip.Addr]*sigSpan
	sawLoop, sawCycle        bool
	// nextSeq numbers interned routes in first-seen order (classic and
	// paris share one counter), for deterministic checkpoint output.
	nextSeq int
}

func newDestState(dest netip.Addr) *destState {
	return &destState{
		classic:      make(map[uint64]*routeMemo),
		paris:        make(map[uint64]*routeMemo),
		pairs:        make(map[pairKey]*pairMemo),
		classicGraph: anomaly.NewGraph(dest),
		parisGraph:   anomaly.NewGraph(dest),
		loopSigs:     make(map[netip.Addr]*sigSpan),
		cycleSigs:    make(map[netip.Addr]*sigSpan),
	}
}

// note records one observation of a signature in a round; repeated
// instances in the same round collapse, matching the per-round signature
// sets Analyze historically kept.
func note(sigs map[netip.Addr]*sigSpan, addr netip.Addr, round int) {
	sp := sigs[addr]
	if sp == nil {
		sigs[addr] = &sigSpan{lastRound: round, rounds: 1}
		return
	}
	if sp.lastRound != round {
		sp.lastRound = round
		sp.rounds++
	}
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

// analyzeRoute computes one route's memo from scratch: detection, response
// and mid-star tallies (mid-stars are a classic-route statistic), address
// bookkeeping, and the route's diamond-graph contribution.
func (a *Accumulator) analyzeRoute(rt *tracer.Route, classic bool, ds *destState) routeMemo {
	mo := routeMemo{
		rt:      rt,
		loops:   anomaly.FindLoops(rt),
		cycles:  anomaly.FindCycles(rt),
		reached: rt.Reached(),
	}
	lastResp := -1
	for i, h := range rt.Hops {
		if !h.Star() {
			lastResp = i
			mo.responses++
			a.addrs[h.Addr] = true
		}
	}
	if classic {
		// Stars count as "mid" only when a response follows later in the
		// route — trailing stars are the normal end-of-trace pattern
		// (Section 3).
		for i, h := range rt.Hops {
			if h.Star() && i < lastResp {
				mo.midStars++
			}
		}
		ds.classicGraph.Add(rt)
	} else {
		ds.parisGraph.Add(rt)
	}
	return mo
}

// intern returns the destination's memo for rt, creating it — over a copy
// of rt, never rt itself — on first sight. It returns nil on a fingerprint
// collision (fingerprint present, contents unequal); the caller then computes
// the pair without memoization — every side effect of analyzeRoute is
// idempotent, so correctness is unaffected.
func (a *Accumulator) intern(m map[uint64]*routeMemo, rt *tracer.Route, fp uint64, classic bool, ds *destState) *routeMemo {
	if mo := m[fp]; mo != nil {
		if mo.rt.Equal(rt) {
			return mo
		}
		return nil
	}
	return a.adopt(m, rt.Clone(), fp, classic, ds)
}

// adopt interns rt, a route the accumulator owns and whose fingerprint fp is
// not yet in m.
func (a *Accumulator) adopt(m map[uint64]*routeMemo, rt *tracer.Route, fp uint64, classic bool, ds *destState) *routeMemo {
	mo := new(routeMemo)
	*mo = a.analyzeRoute(rt, classic, ds)
	mo.seq = ds.nextSeq
	ds.nextSeq++
	m[fp] = mo
	return mo
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
	cm := a.intern(ds.classic, p.Classic, cfp, true, ds)
	pm := a.intern(ds.paris, p.Paris, pfp, false, ds)
	memoable := cm != nil && pm != nil
	var cs, ps routeMemo
	if cm == nil {
		cs = a.analyzeRoute(p.Classic, true, ds)
		cm = &cs
	}
	if pm == nil {
		ps = a.analyzeRoute(p.Paris, false, ds)
		pm = &ps
	}

	var causes *pairMemo
	if memoable {
		causes = ds.pairs[pairKey{classic: cfp, paris: pfp}]
	}
	if causes == nil {
		pc := anomaly.ClassifyPairDetected(cm.loops, cm.cycles, pm.loops, pm.cycles, cm.rt, true)
		causes = &pairMemo{loopCauses: pc.LoopCauses, cycleCauses: pc.CycleCauses, parisOnly: pc.ParisOnly}
		if memoable {
			ds.pairs[pairKey{classic: cfp, paris: pfp}] = causes
		}
	}

	a.routes++
	if cm.reached {
		a.reached++
	}
	a.responses += cm.responses + pm.responses
	a.midStars += cm.midStars
	a.foldRTT(p.Classic)
	a.foldRTT(p.Paris)

	if len(cm.loops) > 0 {
		a.routesWithLoop++
		ds.sawLoop = true
	}
	for i, l := range cm.loops {
		a.loopInstances++
		a.loopAddrs[l.Addr] = true
		cause := causes.loopCauses[i]
		if anomaly.LoopConsultsIPID(l, cm.rt) {
			// The zero-TTL rule reads IP IDs, the one loop observable
			// excluded from interning equality; re-evaluate against this
			// round's route. The quoted-TTL pattern gating this is rare,
			// so stable paths still skip all classification work.
			cause = anomaly.ClassifyLoopDetected(l, p.Classic, pm.loops, true)
		}
		a.loopByCause[cause]++
		note(ds.loopSigs, l.Addr, round)
	}
	a.parisOnly += causes.parisOnly

	if len(cm.cycles) > 0 {
		a.routesWithCycle++
		ds.sawCycle = true
	}
	for i, c := range cm.cycles {
		a.cycleInstances++
		a.cycleAddrs[c.Addr] = true
		cause := causes.cycleCauses[i]
		if anomaly.CycleConsultsIPID(c) {
			// Periodic cycles check IP ID coherence per round (Section
			// 4.2.1) — same reasoning as the loop override above.
			cause = anomaly.ClassifyCycleDetected(c, p.Classic, pm.cycles, true)
		}
		a.cycleByCause[cause]++
		note(ds.cycleSigs, c.Addr, round)
	}
	return FoldResult{
		Paris: pfp, Classic: cfp,
		Loops:  len(cm.loops) + len(pm.loops),
		Cycles: len(cm.cycles) + len(pm.cycles),
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
				if anomaly.ClassifyDiamond(d, ds.parisGraph) == anomaly.CausePerFlowLB {
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
		sort.Slice(s.AllAddresses, func(i, j int) bool {
			return s.AllAddresses[i].Less(s.AllAddresses[j])
		})
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
