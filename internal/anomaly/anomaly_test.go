package anomaly

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"repro/internal/tracer"
)

func addr(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}) }

var dst = netip.AddrFrom4([4]byte{172, 16, 0, 9})

// mkRoute builds a route from a compact spec: indices are addresses
// (addr(i)); -1 is a star.
func mkRoute(spec ...int) *tracer.Route {
	rt := &tracer.Route{Dest: dst}
	for i, s := range spec {
		// The response TTL is a property of the responder (its initial
		// TTL minus its return-path length), so repeated appearances of
		// one address carry the same value — unlike a NAT hiding ever
		// more distant boxes.
		h := tracer.Hop{TTL: i + 1, ProbeTTL: 1, Kind: tracer.KindTimeExceeded, RespTTL: 250 - s}
		if s == -1 {
			h = tracer.Hop{TTL: i + 1, Kind: tracer.KindNone, ProbeTTL: -1}
		} else {
			h.Addr = addr(s)
			h.IPID = uint16(i + 1)
		}
		rt.Hops = append(rt.Hops, h)
	}
	return rt
}

func TestFindLoopsBasic(t *testing.T) {
	rt := mkRoute(1, 2, 3, 3, 4)
	loops := FindLoops(rt)
	if len(loops) != 1 {
		t.Fatalf("loops = %v", loops)
	}
	l := loops[0]
	if l.Addr != addr(3) || l.Dest != dst || l.Start != 2 || l.Len != 2 || l.AtEnd {
		t.Errorf("loop = %+v", l)
	}
}

func TestFindLoopsRunCollapses(t *testing.T) {
	rt := mkRoute(1, 2, 2, 2, 2)
	loops := FindLoops(rt)
	if len(loops) != 1 || loops[0].Len != 4 || !loops[0].AtEnd {
		t.Fatalf("loops = %+v", loops)
	}
}

func TestFindLoopsMultiple(t *testing.T) {
	rt := mkRoute(1, 1, 2, 3, 3)
	loops := FindLoops(rt)
	if len(loops) != 2 {
		t.Fatalf("loops = %v", loops)
	}
	if loops[0].Addr != addr(1) || loops[1].Addr != addr(3) {
		t.Errorf("loops = %+v", loops)
	}
}

func TestFindLoopsStarsDoNotLoop(t *testing.T) {
	if loops := FindLoops(mkRoute(1, -1, -1, 2)); len(loops) != 0 {
		t.Errorf("stars produced loops: %v", loops)
	}
	// A star between equal addresses breaks the run.
	if loops := FindLoops(mkRoute(1, 2, -1, 2)); len(loops) != 0 {
		t.Errorf("star-separated repeat detected as loop: %v", loops)
	}
}

func TestFindCyclesBasic(t *testing.T) {
	rt := mkRoute(1, 2, 3, 2, 5)
	cycles := FindCycles(rt)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	c := cycles[0]
	if c.Addr != addr(2) || c.First != 1 || c.Second != 3 {
		t.Errorf("cycle = %+v", c)
	}
}

func TestFindCyclesLoopIsNotCycle(t *testing.T) {
	// The paper's definition requires a distinct intervening address.
	if cycles := FindCycles(mkRoute(1, 2, 2, 3)); len(cycles) != 0 {
		t.Errorf("a loop was misdetected as a cycle: %v", cycles)
	}
	// Repeat separated only by stars does not qualify either.
	if cycles := FindCycles(mkRoute(1, 2, -1, 2)); len(cycles) != 0 {
		t.Errorf("star-separated repeat misdetected: %v", cycles)
	}
}

func TestFindCyclesPeriodicity(t *testing.T) {
	// Forwarding loop: X Y X Y X Y -> period 2 from the first repeat.
	rt := mkRoute(1, 2, 3, 2, 3, 2, 3)
	cycles := FindCycles(rt)
	if len(cycles) != 2 {
		t.Fatalf("cycles = %+v", cycles)
	}
	for _, c := range cycles {
		if c.Period != 2 {
			t.Errorf("cycle on %v: period %d, want 2", c.Addr, c.Period)
		}
	}
	// Non-periodic continuation: period must be 0.
	rt2 := mkRoute(1, 2, 3, 2, 5, 6)
	c2 := FindCycles(rt2)
	if len(c2) != 1 || c2[0].Period != 0 {
		t.Errorf("cycles = %+v, want one with period 0", c2)
	}
}

func TestGraphDiamonds(t *testing.T) {
	g := NewGraph(dst)
	// Two routes sharing head and tail with different middles.
	g.Add(mkRoute(1, 2, 4, 5))
	g.Add(mkRoute(1, 3, 4, 5))
	ds := g.Diamonds()
	if len(ds) != 1 {
		t.Fatalf("diamonds = %+v", ds)
	}
	d := ds[0]
	if d.Head != addr(1) || d.Tail != addr(4) || len(d.Mids) != 2 {
		t.Errorf("diamond = %+v", d)
	}
	// One middle only: not a diamond (the paper's (C0,G0) remark).
	g2 := NewGraph(dst)
	g2.Add(mkRoute(1, 2, 4))
	g2.Add(mkRoute(1, 2, 4))
	if ds := g2.Diamonds(); len(ds) != 0 {
		t.Errorf("single-middle pair detected as diamond: %+v", ds)
	}
}

func TestGraphStarsBreakTriples(t *testing.T) {
	g := NewGraph(dst)
	g.Add(mkRoute(1, -1, 4, 5))
	g.Add(mkRoute(1, 2, 4, 5))
	if ds := g.Diamonds(); len(ds) != 0 {
		t.Errorf("star counted as a diamond middle: %+v", ds)
	}
}

func TestGraphRouteCount(t *testing.T) {
	g := NewGraph(dst)
	for i := 0; i < 5; i++ {
		g.Add(mkRoute(1, 2, 3))
	}
	if g.Routes != 5 {
		t.Errorf("Routes = %d", g.Routes)
	}
}

// --- Classification ---

// loopCause attributes l on route, paired with paris. The rules that fire
// before differencing are tested with the route as its own pair.
func loopCause(l Loop, route, paris *tracer.Route) Cause {
	return ClassifyLoopDetected(l, route, FindLoops(paris))
}

func TestClassifyLoopZeroTTL(t *testing.T) {
	rt := mkRoute(1, 2, 2, 3)
	rt.Hops[1].ProbeTTL = 0
	rt.Hops[2].ProbeTTL = 1
	rt.Hops[1].IPID = 100
	rt.Hops[2].IPID = 103
	l := FindLoops(rt)[0]
	if got := loopCause(l, rt, rt); got != CauseZeroTTL {
		t.Errorf("cause = %v, want zero-ttl", got)
	}
	// If the IP IDs come from clearly different boxes, the rule must not
	// fire.
	rt.Hops[2].IPID = 40000
	if got := loopCause(l, rt, rt); got == CauseZeroTTL {
		t.Error("zero-ttl fired despite incoherent IP IDs")
	}
}

func TestClassifyLoopUnreachability(t *testing.T) {
	rt := mkRoute(1, 2, 3, 3)
	rt.Hops[3].Kind = tracer.KindHostUnreachable
	l := FindLoops(rt)[0]
	if got := loopCause(l, rt, rt); got != CauseUnreachability {
		t.Errorf("cause = %v, want unreachability", got)
	}
}

func TestClassifyLoopAddressRewriting(t *testing.T) {
	rt := mkRoute(1, 2, 3, 3, 3)
	rt.Hops[2].RespTTL = 249
	rt.Hops[3].RespTTL = 248
	rt.Hops[4].RespTTL = 247
	l := FindLoops(rt)[0]
	if got := loopCause(l, rt, rt); got != CauseAddressRewriting {
		t.Errorf("cause = %v, want address-rewriting", got)
	}
	// Constant response TTL: a single router answering twice, not a NAT.
	rt.Hops[3].RespTTL = 249
	rt.Hops[4].RespTTL = 249
	rt.Hops[2].RespTTL = 249
	if got := loopCause(l, rt, rt); got == CauseAddressRewriting {
		t.Error("rewriting fired despite flat response TTLs")
	}
	// The shortest loop, two hops, is rewriting too when its response TTL
	// falls.
	rt = mkRoute(1, 2, 3, 3, 4)
	rt.Hops[3].RespTTL = 246
	if l := FindLoops(rt)[0]; l.Len != 2 || loopCause(l, rt, rt) != CauseAddressRewriting {
		t.Errorf("two-hop loop %+v with a falling response TTL: cause %v, want address-rewriting", l, loopCause(l, rt, rt))
	}
}

func TestClassifyLoopPerFlowViaDifferencing(t *testing.T) {
	classic := mkRoute(1, 2, 3, 3, 4)
	paris := mkRoute(1, 2, 3, 5, 4) // no loop
	l := FindLoops(classic)[0]
	if got := loopCause(l, classic, paris); got != CausePerFlowLB {
		t.Errorf("cause = %v, want per-flow-lb", got)
	}
	// Same loop present in the Paris trace: cannot be per-flow.
	paris2 := mkRoute(1, 2, 3, 3, 4)
	if got := loopCause(l, classic, paris2); got != CausePerPacketLB {
		t.Errorf("cause = %v, want per-packet residual", got)
	}
}

func TestClassifyLoopOrderingZeroTTLBeforeDifferencing(t *testing.T) {
	classic := mkRoute(1, 2, 2, 3)
	classic.Hops[1].ProbeTTL = 0
	classic.Hops[2].ProbeTTL = 1
	classic.Hops[1].IPID = 5
	classic.Hops[2].IPID = 6
	paris := mkRoute(1, 2, 3) // loop absent from paris too
	l := FindLoops(classic)[0]
	if got := loopCause(l, classic, paris); got != CauseZeroTTL {
		t.Errorf("cause = %v; the conclusive zero-TTL evidence must win", got)
	}
}

func TestClassifyCycleUnreachability(t *testing.T) {
	rt := mkRoute(1, 2, 3, 2)
	rt.Hops[3].Kind = tracer.KindNetUnreachable
	c := FindCycles(rt)[0]
	if got := ClassifyCycleDetected(c, rt, FindCycles(rt)); got != CauseUnreachability {
		t.Errorf("cause = %v, want unreachability", got)
	}
}

func TestClassifyCycleForwardingLoop(t *testing.T) {
	rt := mkRoute(1, 2, 3, 2, 3, 2)
	// Coherent IP IDs on the repeated address.
	for i, h := range rt.Hops {
		_ = h
		rt.Hops[i].IPID = uint16(10 + i)
	}
	c := FindCycles(rt)[0]
	if got := ClassifyCycleDetected(c, rt, FindCycles(rt)); got != CauseForwardingLoop {
		t.Errorf("cause = %v, want forwarding-loop", got)
	}
	// Wildly different IP IDs: periodicity alone is not enough.
	rt.Hops[3].IPID = 50000
	rt.Hops[5].IPID = 200
	if got := ClassifyCycleDetected(c, rt, FindCycles(rt)); got == CauseForwardingLoop {
		t.Error("forwarding-loop fired with incoherent IP IDs")
	}
}

func TestClassifyCyclePerFlow(t *testing.T) {
	classic := mkRoute(1, 2, 3, 2, 5)
	paris := mkRoute(1, 2, 3, 4, 5)
	c := FindCycles(classic)[0]
	if got := ClassifyCycleDetected(c, classic, FindCycles(paris)); got != CausePerFlowLB {
		t.Errorf("cause = %v, want per-flow-lb", got)
	}
}

func TestClassifyDiamond(t *testing.T) {
	g := NewGraph(dst)
	g.Add(mkRoute(1, 2, 4))
	g.Add(mkRoute(1, 3, 4))
	d := g.Diamonds()[0]

	parisClean := NewGraph(dst)
	parisClean.Add(mkRoute(1, 2, 4))
	if got := ClassifyDiamond(d, parisClean); got != CausePerFlowLB {
		t.Errorf("cause = %v, want per-flow-lb", got)
	}

	parisSame := NewGraph(dst)
	parisSame.Add(mkRoute(1, 2, 4))
	parisSame.Add(mkRoute(1, 3, 4))
	if got := ClassifyDiamond(d, parisSame); got != CausePerPacketLB {
		t.Errorf("cause = %v, want per-packet", got)
	}

	if got := ClassifyDiamond(d, nil); got != CausePerPacketLB {
		t.Errorf("nil paris graph: cause = %v, want per-packet", got)
	}
}

func TestIPIDCloseWraparound(t *testing.T) {
	if !ipidClose(0xfffe, 0x0005, maxIPIDGap) {
		t.Error("wraparound increment rejected")
	}
	if ipidClose(5, 5, maxIPIDGap) {
		t.Error("zero delta accepted (counters must advance)")
	}
	if ipidClose(1000, 900, maxIPIDGap) {
		t.Error("backwards delta accepted")
	}
	if ipidClose(0, 2000, maxIPIDGap) {
		t.Error("oversized gap accepted")
	}
	if !ipidClose(0xffff, maxIPIDGap-1, maxIPIDGap) {
		t.Error("a gap of exactly maxIPIDGap rejected")
	}
	if ipidClose(0xffff, maxIPIDGap, maxIPIDGap) {
		t.Error("a gap of maxIPIDGap+1 accepted")
	}
}

func TestCauseStrings(t *testing.T) {
	for c := CauseUnknown; c <= CauseForwardingLoop; c++ {
		if c.String() == "" {
			t.Errorf("empty string for cause %d", int(c))
		}
	}
}

// pairClassReference recomputes a PairClass the pre-streaming way: one
// ClassifyLoopDetected/ClassifyCycleDetected call per instance and the nested Paris-only
// rescan. ClassifyPair must match it exactly.
func pairClassReference(classic, paris *tracer.Route) PairClass {
	pc := PairClass{Loops: FindLoops(classic), Cycles: FindCycles(classic)}
	if len(pc.Loops) > 0 {
		pc.LoopCauses = make([]Cause, len(pc.Loops))
		for i, l := range pc.Loops {
			pc.LoopCauses[i] = loopCause(l, classic, paris)
		}
	}
	if len(pc.Cycles) > 0 {
		pc.CycleCauses = make([]Cause, len(pc.Cycles))
		for i, c := range pc.Cycles {
			pc.CycleCauses[i] = ClassifyCycleDetected(c, classic, FindCycles(paris))
		}
	}
	for _, l := range FindLoops(paris) {
		found := false
		for _, cl := range pc.Loops {
			if cl.Addr == l.Addr {
				found = true
				break
			}
		}
		if !found {
			pc.ParisOnly++
		}
	}
	return pc
}

func TestClassifyPairMatchesPerInstance(t *testing.T) {
	cases := []struct {
		name           string
		classic, paris *tracer.Route
	}{
		{"clean", mkRoute(1, 2, 3), mkRoute(1, 2, 3)},
		{"per-flow loop", mkRoute(1, 2, 2, 3), mkRoute(1, 2, 4, 3)},
		{"shared loop", mkRoute(1, 2, 2, 3), mkRoute(1, 2, 2, 3)},
		{"paris-only loop", mkRoute(1, 2, 3), mkRoute(1, 4, 4, 3)},
		{"both sides loop plus paris-only", mkRoute(1, 2, 2, 3), mkRoute(1, 2, 2, 5, 5)},
		{"cycle per-flow", mkRoute(1, 2, 3, 2, 4), mkRoute(1, 2, 3, 5, 4)},
		{"loop and cycle", mkRoute(1, 2, 2, 3, 2, 4), mkRoute(1, 6, 3, 5, 4)},
		{"stars", mkRoute(1, -1, 2, 2, -1, 3), mkRoute(1, -1, 2, 4, -1, 3)},
	}
	for _, tc := range cases {
		want := pairClassReference(tc.classic, tc.paris)
		got := ClassifyPair(tc.classic, tc.paris)
		if len(got.Loops) != len(want.Loops) || len(got.Cycles) != len(want.Cycles) ||
			got.ParisOnly != want.ParisOnly {
			t.Errorf("%s: ClassifyPair shape = %d loops/%d cycles/%d paris-only, want %d/%d/%d",
				tc.name, len(got.Loops), len(got.Cycles), got.ParisOnly,
				len(want.Loops), len(want.Cycles), want.ParisOnly)
			continue
		}
		for i := range want.LoopCauses {
			if got.LoopCauses[i] != want.LoopCauses[i] {
				t.Errorf("%s: loop %d cause = %v, want %v", tc.name, i, got.LoopCauses[i], want.LoopCauses[i])
			}
		}
		for i := range want.CycleCauses {
			if got.CycleCauses[i] != want.CycleCauses[i] {
				t.Errorf("%s: cycle %d cause = %v, want %v", tc.name, i, got.CycleCauses[i], want.CycleCauses[i])
			}
		}
	}
}

// TestGraphAddIdempotent pins the incremental-dedup contract streaming
// accumulators rely on: re-adding a route whose triples are present must not
// change the index or the diamond set.
func TestGraphAddIdempotent(t *testing.T) {
	g := NewGraph(dst)
	g.Add(mkRoute(1, 2, 4))
	g.Add(mkRoute(1, 3, 4))
	triples, diamonds := slices.Clone(g.triples), g.Diamonds()
	g.Add(mkRoute(1, 2, 4))
	g.Add(mkRoute(1, 3, 4))
	if !slices.Equal(g.triples, triples) || !reflect.DeepEqual(g.Diamonds(), diamonds) {
		t.Errorf("re-adding present routes changed the graph: triples %v -> %v, diamonds %v -> %v",
			triples, g.triples, diamonds, g.Diamonds())
	}
	if g.Routes != 4 {
		t.Errorf("Routes = %d, want 4 (the counter still advances)", g.Routes)
	}
	if len(triples) != 2 || len(diamonds) != 1 || len(diamonds[0].Mids) != 2 {
		t.Fatalf("test shape degenerate: triples=%v diamonds=%v", triples, diamonds)
	}
}
