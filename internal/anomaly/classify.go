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

// ClassifyLoopDetected attributes a loop to a cause, applying the paper's
// checks in order of conclusiveness:
//
//  1. zero-TTL forwarding: quoted probe TTL 0 then 1, same IP ID source;
//  2. unreachability: the loop ends the route with an !H/!N response;
//  3. address rewriting: strictly decreasing response TTL across the loop;
//  4. per-flow load balancing: the signature is absent from the paired
//     Paris measurement;
//  5. residual: per-packet load balancing (unverifiable, as in the paper).
//
// route is the classic route the loop was seen on, read as measured: the
// zero-TTL rule's IP ID check differs between exchanges of one path, so a
// cause is a fact about that route and never reusable for another. parisLoops
// is the paired Paris route's detection, already in hand: streaming
// accumulators run FindLoops once per interned route.
func ClassifyLoopDetected(l Loop, route *tracer.Route, parisLoops []Loop) Cause {
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
	if !loopsContain(parisLoops, l.Addr) {
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
// the hops, a loop's span: one address at every hop, so no star.
func respTTLDecreasing(hops []tracer.Hop) bool {
	for i := 1; i < len(hops); i++ {
		if hops[i].RespTTL >= hops[i-1].RespTTL {
			return false
		}
	}
	return true
}

// ClassifyCycleDetected attributes a cycle to a cause, given the paired
// Paris trace's cycles:
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
// Like ClassifyLoopDetected it reads the route the cycle was seen on as
// measured (the forwarding-loop rule checks its IP IDs) and takes the Paris
// detection already in hand.
func ClassifyCycleDetected(c Cycle, route *tracer.Route, parisCycles []Cycle) Cause {
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

	if !cyclesContain(parisCycles, c.Addr) {
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

// PairClass is the full classification of one paired measurement: every
// classic loop and cycle instance with its attributed cause (indexes line up
// with Loops and Cycles), plus the count of Paris-only loops.
type PairClass struct {
	Loops       []Loop
	LoopCauses  []Cause
	Cycles      []Cycle
	CycleCauses []Cause
	ParisOnly   int
}

// ClassifyPair detects and classifies every anomaly of a paired
// classic/Paris measurement in one call.
func ClassifyPair(classic, paris *tracer.Route) PairClass {
	pc := PairClass{Loops: FindLoops(classic), Cycles: FindCycles(classic)}
	parisLoops, parisCycles := FindLoops(paris), FindCycles(paris)
	if len(pc.Loops) > 0 {
		pc.LoopCauses = make([]Cause, len(pc.Loops))
		for i, l := range pc.Loops {
			pc.LoopCauses[i] = ClassifyLoopDetected(l, classic, parisLoops)
		}
	}
	if len(pc.Cycles) > 0 {
		pc.CycleCauses = make([]Cause, len(pc.Cycles))
		for i, c := range pc.Cycles {
			pc.CycleCauses[i] = ClassifyCycleDetected(c, classic, parisCycles)
		}
	}
	pc.ParisOnly = ParisOnly(pc.Loops, parisLoops)
	return pc
}

// ParisOnly counts the Paris-only loops of a pair: loops the Paris trace saw
// on an address that loops nowhere in the paired classic route (Section
// 4.1.2's 0.25% residue).
func ParisOnly(loops, parisLoops []Loop) int {
	n := 0
	for _, l := range parisLoops {
		if !loopsContain(loops, l.Addr) {
			n++
		}
	}
	return n
}

// ClassifyDiamond attributes a diamond found in the classic per-destination
// graph: if the paired Paris graph (same destination, same rounds) lacks
// the signature, per-flow load balancing created it; otherwise it is the
// residual the paper attributes mostly to per-packet load balancing (or to
// true topology visible through it).
func ClassifyDiamond(d Diamond, parisGraph *Graph) Cause {
	if parisGraph == nil || parisGraph.diamond(triple{h: addrKey(d.Head), t: addrKey(d.Tail)}) {
		return CausePerPacketLB
	}
	return CausePerFlowLB
}
