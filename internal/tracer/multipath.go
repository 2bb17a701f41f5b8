package tracer

import (
	"fmt"
	"net/netip"
	"sort"
)

// This file holds the two items the paper lists as future work, realised
// with nothing but Paris traces whose flow identifier is chosen on purpose:
//
//   - EnumeratePaths: the "algorithms to automatically find all interfaces
//     of a given load balancer", by tracing many distinct flows;
//   - ClassifyBalancer: distinguishing per-flow from per-packet load
//     balancing, by repeating a single flow's probes at each hop and
//     observing whether the answering address stays put.
//
// Both run Paris traces whose flow they choose.

// PathSet is the result of multipath enumeration toward one destination.
type PathSet struct {
	Dest netip.Addr
	// Paths maps each distinct hop-address sequence (stringified) to the
	// flows (source ports) that took it.
	Paths map[string][]uint16
	// Routes holds one representative route per distinct path.
	Routes []*Route
	// InterfacesPerHop lists, for each TTL offset, the distinct
	// responding interfaces observed across flows — the "all interfaces
	// of a given load balancer" view.
	InterfacesPerHop [][]netip.Addr
}

// Distinct returns the number of distinct paths found.
func (ps *PathSet) Distinct() int { return len(ps.Paths) }

// EnumeratePaths traces toward dest once per flow over tp, varying the Paris
// source and destination ports (opts.SrcPort and DstPort are ignored), and
// merges the results. With per-flow load balancing on the path, distinct
// flows reveal the distinct parallel paths; with classic routing only,
// exactly one path appears. flows <= 0 selects 16.
func EnumeratePaths(tp Transport, opts Options, dest netip.Addr, flows int) (*PathSet, error) {
	return enumeratePaths(NewParisUDP(tp, opts), opts.PathHint, dest, flows)
}

func enumeratePaths(tr Tracer, hint int, dest netip.Addr, flows int) (*PathSet, error) {
	if flows <= 0 {
		flows = 16
	}
	ps := &PathSet{Dest: dest, Paths: make(map[string][]uint16)}
	ifaceSets := []map[netip.Addr]bool{}
	for f := 0; f < flows; f++ {
		src := uint16(10000 + f*97)
		tr.Aim(src, uint16(20000+f*59), hint)
		rt, err := tr.Trace(dest)
		if err != nil {
			return nil, fmt.Errorf("tracer: enumerating flow %d: %w", f, err)
		}
		key := pathKey(rt)
		if _, seen := ps.Paths[key]; !seen {
			ps.Routes = append(ps.Routes, rt)
		}
		ps.Paths[key] = append(ps.Paths[key], src)
		for i, h := range rt.Hops {
			for len(ifaceSets) <= i {
				ifaceSets = append(ifaceSets, make(map[netip.Addr]bool))
			}
			if !h.Star() {
				ifaceSets[i][h.Addr] = true
			}
		}
	}
	for _, set := range ifaceSets {
		var addrs []netip.Addr
		for a := range set {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
		ps.InterfacesPerHop = append(ps.InterfacesPerHop, addrs)
	}
	return ps, nil
}

// pathKey canonicalizes a route's address sequence.
func pathKey(rt *Route) string {
	s := ""
	for _, h := range rt.Hops {
		if h.Star() {
			s += "*|"
		} else {
			s += h.Addr.String() + "|"
		}
	}
	return s
}

// BalancerKind is the verdict of ClassifyBalancer.
type BalancerKind int

const (
	// BalancerNone: one path for all flows and repetitions.
	BalancerNone BalancerKind = iota
	// BalancerPerFlow: different flows take different, stable paths.
	BalancerPerFlow
	// BalancerPerPacket: even a single repeated flow sees several paths.
	BalancerPerPacket
)

// String implements fmt.Stringer.
func (k BalancerKind) String() string {
	switch k {
	case BalancerNone:
		return "none"
	case BalancerPerFlow:
		return "per-flow"
	case BalancerPerPacket:
		return "per-packet"
	default:
		return fmt.Sprintf("BalancerKind(%d)", int(k))
	}
}

// ClassifyBalancer distinguishes per-flow from per-packet load balancing
// toward dest. It traces one flow with `repeats` probes per hop (same
// five-tuple, distinct probe identifiers: a hop answering from two addresses
// is per-packet; repeats <= 0 selects 4), then samples `flows` distinct
// flows (path changes there with a stable single flow indicate per-flow
// balancing).
func ClassifyBalancer(tp Transport, opts Options, dest netip.Addr, flows, repeats int) (BalancerKind, error) {
	if repeats <= 0 {
		repeats = 4
	}
	// Step 1: one flow, repeated at every hop.
	one := opts
	one.ProbesPerHop = repeats
	tr := NewParisUDP(tp, one)
	tr.Aim(10007, 20011, opts.PathHint)
	rt, err := tr.Trace(dest)
	if err != nil {
		return BalancerNone, fmt.Errorf("tracer: repeated flow: %w", err)
	}
	for _, attempts := range rt.All {
		var seen netip.Addr
		for _, h := range attempts {
			if h.Star() {
				continue
			}
			if seen.IsValid() && h.Addr != seen {
				return BalancerPerPacket, nil
			}
			seen = h.Addr
		}
	}
	// Step 2: distinct flows.
	ps, err := enumeratePaths(NewParisUDP(tp, opts), opts.PathHint, dest, flows)
	if err != nil {
		return BalancerNone, err
	}
	if ps.Distinct() > 1 {
		return BalancerPerFlow, nil
	}
	return BalancerNone, nil
}
