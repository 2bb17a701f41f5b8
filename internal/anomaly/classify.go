package anomaly

import (
	"fmt"
	"net/netip"

	"repro/internal/tracer"
)

// Cause is the attributed origin of an anomaly, following the taxonomy of
// Sections 4.1–4.3.
type Cause int

const (
	// CauseUnknown means no rule matched.
	CauseUnknown Cause = iota
	// CausePerFlowLB: the anomaly appears with classic traceroute's
	// varying flow identifier but not in the paired Paris measurement.
	CausePerFlowLB
	// CausePerPacketLB: the residual attributed to random per-packet
	// spreading (the paper supposes, but cannot verify, this cause).
	CausePerPacketLB
	// CauseZeroTTL: a misconfigured router forwarded a zero-TTL packet;
	// detected by a quoted probe TTL of 0 followed by 1 (Fig. 4).
	CauseZeroTTL
	// CauseUnreachability: a router answered one probe with Time
	// Exceeded and the next with Destination Unreachable (!H/!N).
	CauseUnreachability
	// CauseAddressRewriting: a NAT box or firewall rewrote the source of
	// ICMP from routers behind it; detected by a decreasing response TTL
	// across hops bearing one address (Fig. 5).
	CauseAddressRewriting
	// CauseForwardingLoop: packets truly cycled (routing convergence);
	// detected by periodicity of the measured route and coherently
	// incrementing IP IDs (Section 4.2.1).
	CauseForwardingLoop
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseUnknown:
		return "unknown"
	case CausePerFlowLB:
		return "per-flow-lb"
	case CausePerPacketLB:
		return "per-packet-lb"
	case CauseZeroTTL:
		return "zero-ttl-forwarding"
	case CauseUnreachability:
		return "unreachability"
	case CauseAddressRewriting:
		return "address-rewriting"
	case CauseForwardingLoop:
		return "forwarding-loop"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// ipidClose reports whether two IP ID samples are plausibly from the same
// router's counter: b follows a by a small forward increment (mod 2^16).
// Routers emit other traffic between our probes, so allow a generous gap.
func ipidClose(a, b uint16, maxGap uint16) bool {
	delta := b - a // wraps mod 2^16
	return delta > 0 && delta <= maxGap
}

// maxIPIDGap bounds the counter advance we accept between two responses
// attributed to one router.
const maxIPIDGap = 1024

// ClassifyLoop attributes a loop to a cause, applying the paper's checks in
// order of conclusiveness:
//
//  1. zero-TTL forwarding: quoted probe TTL 0 then 1, same IP ID source;
//  2. unreachability: the loop ends the route with an !H/!N response;
//  3. address rewriting: strictly decreasing response TTL across the loop;
//  4. per-flow load balancing: the signature is absent from the paired
//     Paris measurement;
//  5. residual: per-packet load balancing (unverifiable, as in the paper).
//
// paris may be nil when no paired trace exists; differencing then cannot
// fire and residual load-balancing loops classify as per-packet.
func ClassifyLoop(l Loop, route, paris *tracer.Route) Cause {
	if paris == nil {
		return classifyLoop(l, route, nil, false)
	}
	return classifyLoop(l, route, FindLoops(paris), true)
}

// ClassifyLoopDetected is ClassifyLoop with the paired Paris detection
// already in hand: streaming accumulators memoize FindLoops per interned
// route and classify many instances against one detection pass. It is also
// how the accumulator re-evaluates a zero-TTL candidate against the
// current round's route: the rule's IP ID coherence check is the one loop
// observable that changes between exchanges of one path.
func ClassifyLoopDetected(l Loop, route *tracer.Route, parisLoops []Loop, hasParis bool) Cause {
	return classifyLoop(l, route, parisLoops, hasParis)
}

func classifyLoop(l Loop, route *tracer.Route, parisLoops []Loop, hasParis bool) Cause {
	hops := route.Hops
	first := hops[l.Start]
	second := hops[l.Start+1]

	// Zero-TTL forwarding (Fig. 4): first response quotes probe TTL 0,
	// the next quotes the normal 1, and both came from the same box.
	if first.ProbeTTL == 0 && second.ProbeTTL == 1 &&
		ipidClose(first.IPID, second.IPID, maxIPIDGap) {
		return CauseZeroTTL
	}

	// Unreachability message: Time Exceeded then Destination Unreachable
	// from the same address, flagged !H or !N, halting the trace.
	if l.AtEnd {
		last := hops[l.Start+l.Len-1]
		switch last.Kind {
		case tracer.KindHostUnreachable, tracer.KindNetUnreachable:
			return CauseUnreachability
		}
	}

	// Address rewriting (Fig. 5): every response in the loop bears the
	// same address but the response TTL falls at each hop — the boxes are
	// genuinely further and further away.
	if l.Len >= 2 && respTTLDecreasing(hops[l.Start:l.Start+l.Len]) {
		return CauseAddressRewriting
	}

	// Per-flow load balancing: gone when the flow identifier is held
	// constant.
	if hasParis && !loopsContain(parisLoops, l.Addr) {
		return CausePerFlowLB
	}
	return CausePerPacketLB
}

// loopsContain reports whether any detected loop runs on addr.
func loopsContain(loops []Loop, addr netip.Addr) bool {
	for _, x := range loops {
		if x.Addr == addr {
			return true
		}
	}
	return false
}

// respTTLDecreasing reports whether response TTLs strictly decrease across
// the hops (allowing single-step decrements only, the NAT gradient).
func respTTLDecreasing(hops []tracer.Hop) bool {
	for i := 1; i < len(hops); i++ {
		if hops[i].Star() || hops[i-1].Star() {
			return false
		}
		if hops[i].RespTTL >= hops[i-1].RespTTL {
			return false
		}
	}
	return true
}

// ClassifyCycleDetected attributes a cycle to a cause, given the paired
// Paris trace's cycles (hasParis false when there is no paired trace):
//
//  1. unreachability: the second appearance is an !H/!N response ending
//     the route;
//  2. forwarding loop: the measured route is periodic from the first
//     appearance on, and the IP IDs of the repeated address increment
//     coherently (one router visited again and again);
//  3. per-flow load balancing: the signature is absent from the paired
//     Paris measurement;
//  4. residual: per-packet load balancing or spoofed addresses.
//
// Like ClassifyLoopDetected it takes the Paris detection already in hand;
// periodic cycles re-evaluate their IP ID coherence against each round's
// route through it.
func ClassifyCycleDetected(c Cycle, route *tracer.Route, parisCycles []Cycle, hasParis bool) Cause {
	return classifyCycle(c, route, parisCycles, hasParis)
}

func classifyCycle(c Cycle, route *tracer.Route, parisCycles []Cycle, hasParis bool) Cause {
	hops := route.Hops

	// Unreachability: some appearance of the cycling address (typically
	// the last, which halts the trace) is an !H/!N response.
	for _, h := range hops {
		if h.Star() || h.Addr != c.Addr {
			continue
		}
		switch h.Kind {
		case tracer.KindHostUnreachable, tracer.KindNetUnreachable:
			return CauseUnreachability
		}
	}

	if c.Period > 0 && cycleIPIDsCoherent(hops, c) {
		return CauseForwardingLoop
	}

	if hasParis && !cyclesContain(parisCycles, c.Addr) {
		return CausePerFlowLB
	}
	return CausePerPacketLB
}

// cyclesContain reports whether any detected cycle runs on addr.
func cyclesContain(cycles []Cycle, addr netip.Addr) bool {
	for _, x := range cycles {
		if x.Addr == addr {
			return true
		}
	}
	return false
}

// cycleIPIDsCoherent checks that successive appearances of the cycling
// address carry IP IDs that "increment, and by a relatively small amount,
// with each cycle" (Section 4.2.1).
func cycleIPIDsCoherent(hops []tracer.Hop, c Cycle) bool {
	var prev *tracer.Hop
	for i := c.First; i < len(hops); i++ {
		h := hops[i]
		if h.Star() || h.Addr != c.Addr {
			continue
		}
		if prev != nil && !ipidClose(prev.IPID, h.IPID, maxIPIDGap) {
			return false
		}
		hh := h
		prev = &hh
	}
	return prev != nil
}

// LoopConsultsIPID reports whether classifying l on routes along this path
// reads the response IP IDs: only the zero-TTL rule does, and only when
// the loop opens with the quoted-TTL 0-then-1 pattern (Fig. 4). The
// pattern is a path property, so accumulators evaluate it once per
// interned route; loops without it classify identically whatever the IP
// IDs and their memoized cause is reusable, while loops with it re-run
// ClassifyLoopDetected against each round's route.
func LoopConsultsIPID(l Loop, route *tracer.Route) bool {
	hops := route.Hops
	return hops[l.Start].ProbeTTL == 0 && hops[l.Start+1].ProbeTTL == 1
}

// CycleConsultsIPID reports whether classifying c reads the response IP
// IDs: only periodic cycles check counter coherence (Section 4.2.1).
func CycleConsultsIPID(c Cycle) bool { return c.Period > 0 }

// PairClass is the full classification of one paired measurement: every
// classic loop and cycle instance with its attributed cause (indexes line up
// with Loops and Cycles), plus the count of Paris-only loops — loops the
// Paris trace saw on an address that loops nowhere in the paired classic
// route (Section 4.1.2's 0.25% residue).
type PairClass struct {
	Loops       []Loop
	LoopCauses  []Cause
	Cycles      []Cycle
	CycleCauses []Cause
	ParisOnly   int
}

// ClassifyPair detects and classifies every anomaly of a paired
// classic/Paris measurement in one call. paris may be nil (see
// ClassifyLoop).
func ClassifyPair(classic, paris *tracer.Route) PairClass {
	var parisLoops []Loop
	var parisCycles []Cycle
	if paris != nil {
		parisLoops = FindLoops(paris)
		parisCycles = FindCycles(paris)
	}
	return ClassifyPairDetected(FindLoops(classic), FindCycles(classic),
		parisLoops, parisCycles, classic, paris != nil)
}

// ClassifyPairDetected is ClassifyPair with all four detection passes
// already run — the streaming accumulator's entry point, which memoizes
// FindLoops/FindCycles per interned route and re-classifies only when one
// side of the pair actually changed. Each detection pass is consulted once:
// Paris-only matching builds the classic loop-address set a single time
// instead of rescanning the classic loops per Paris instance.
func ClassifyPairDetected(loops []Loop, cycles []Cycle, parisLoops []Loop, parisCycles []Cycle, classic *tracer.Route, hasParis bool) PairClass {
	pc := PairClass{Loops: loops, Cycles: cycles}
	if len(loops) > 0 {
		pc.LoopCauses = make([]Cause, len(loops))
		for i, l := range loops {
			pc.LoopCauses[i] = classifyLoop(l, classic, parisLoops, hasParis)
		}
	}
	if len(cycles) > 0 {
		pc.CycleCauses = make([]Cause, len(cycles))
		for i, c := range cycles {
			pc.CycleCauses[i] = classifyCycle(c, classic, parisCycles, hasParis)
		}
	}
	if len(parisLoops) > 0 {
		// Set-built-once Paris-only matching: O(classic + paris) instead
		// of the nested O(classic × paris) rescan.
		var inClassic map[netip.Addr]bool
		if len(loops) > 0 {
			inClassic = make(map[netip.Addr]bool, len(loops))
			for _, l := range loops {
				inClassic[l.Addr] = true
			}
		}
		for _, l := range parisLoops {
			if !inClassic[l.Addr] {
				pc.ParisOnly++
			}
		}
	}
	return pc
}

// ClassifyDiamond attributes a diamond found in the classic per-destination
// graph: if the paired Paris graph (same destination, same rounds) lacks
// the signature, per-flow load balancing created it; otherwise it is the
// residual the paper attributes mostly to per-packet load balancing (or to
// true topology visible through it).
func ClassifyDiamond(d Diamond, parisGraph *Graph) Cause {
	if parisGraph == nil || parisGraph.diamond(d.Head, d.Tail) {
		return CausePerPacketLB
	}
	return CausePerFlowLB
}
