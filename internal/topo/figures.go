package topo

import (
	"net/netip"

	"repro/internal/flow"
	"repro/internal/netsim"
)

// route is a shorthand for installing a /32 destination route.
func route(r *netsim.Router, dest netip.Addr, policy netsim.Policy, opts flow.Options, vias ...netip.Addr) {
	hops := make([]netsim.NextHop, len(vias))
	for i, v := range vias {
		hops[i] = netsim.NextHop{Via: v}
	}
	r.AddRoute(netsim.Route{
		Prefix:   netip.PrefixFrom(dest, 32),
		Hops:     hops,
		Balance:  policy,
		FlowOpts: opts,
	})
}

// Figure1 is the paper's Fig. 1 topology: a load balancer L at hop 6
// splitting over two parallel two-router branches (A→C above, B→D below)
// that converge at E. Classic traceroute through it misses nodes and infers
// false links such as (A0, D0).
type Figure1 struct {
	Net  *netsim.Network
	Dest *netsim.Host
	// Canonical (responding) addresses of the named routers.
	L, A, B, C, D, E netip.Addr
}

// BuildFigure1 constructs Fig. 1 with the given balancing policy at L
// (PerFlow for the flow-identifier anomalies, PerPacket for random
// spreading as in the 0.25/0.9375 probability analysis).
func BuildFigure1(seed int64, policy netsim.Policy) *Figure1 {
	b := NewBuilder(seed)
	chain := b.Chain(b.Gateway, 4) // hops 2..5
	l := b.NewRouter("L")
	b.Link(chain[3], l) // hop 6
	a := b.NewRouter("A")
	bb := b.NewRouter("B")
	b.Link(l, a)
	b.Link(l, bb) // hop 7
	c := b.NewRouter("C")
	d := b.NewRouter("D")
	b.Link(a, c)
	b.Link(bb, d) // hop 8
	e := b.NewRouter("E")
	b.Link(c, e)
	b.Link(d, e) // hop 9: same canonical address E0
	dest := b.AttachHost(e, "dest", false)

	route(b.Gateway, dest.Addr, 0, flow.Options{}, chain[0].Iface(0))
	for i := 0; i < 3; i++ {
		route(chain[i], dest.Addr, 0, flow.Options{}, chain[i+1].Iface(0))
	}
	route(chain[3], dest.Addr, 0, flow.Options{}, l.Iface(0))
	route(l, dest.Addr, policy, flow.Options{}, a.Iface(0), bb.Iface(0))
	route(a, dest.Addr, 0, flow.Options{}, c.Iface(0))
	route(bb, dest.Addr, 0, flow.Options{}, d.Iface(0))
	route(c, dest.Addr, 0, flow.Options{}, e.Iface(0))
	route(d, dest.Addr, 0, flow.Options{}, e.Iface(0))

	return &Figure1{
		Net: b.Net, Dest: dest,
		L: l.Iface(0), A: a.Iface(0), B: bb.Iface(0),
		C: c.Iface(0), D: d.Iface(0), E: e.Iface(0),
	}
}

// Figure3 is the paper's Fig. 3: per-flow load balancing over branches of
// unequal length (A above, B→C below) converging on E, producing a loop
// (E0, E0) in classic traceroute output when consecutive probes straddle
// the branches.
type Figure3 struct {
	Net        *netsim.Network
	Dest       *netsim.Host
	L, A, B, C netip.Addr
	E          netip.Addr
}

// BuildFigure3 constructs Fig. 3 with per-flow balancing at L.
func BuildFigure3(seed int64) *Figure3 {
	return buildFig3(seed, netsim.PerFlow)
}

// BuildFigure3PerPacket constructs the same topology with a per-packet
// balancer, for the residual-cause experiments.
func BuildFigure3PerPacket(seed int64) *Figure3 {
	return buildFig3(seed, netsim.PerPacket)
}

func buildFig3(seed int64, policy netsim.Policy) *Figure3 {
	b := NewBuilder(seed)
	chain := b.Chain(b.Gateway, 4) // hops 2..5
	l := b.NewRouter("L")
	b.Link(chain[3], l) // hop 6
	a := b.NewRouter("A")
	bb := b.NewRouter("B")
	b.Link(l, a)
	b.Link(l, bb) // hop 7
	c := b.NewRouter("C")
	b.Link(bb, c) // hop 8 (long branch)
	e := b.NewRouter("E")
	b.Link(a, e) // hop 8 (short branch)
	b.Link(c, e) // hop 9 (long branch), same E0
	dest := b.AttachHost(e, "dest", false)

	route(b.Gateway, dest.Addr, 0, flow.Options{}, chain[0].Iface(0))
	for i := 0; i < 3; i++ {
		route(chain[i], dest.Addr, 0, flow.Options{}, chain[i+1].Iface(0))
	}
	route(chain[3], dest.Addr, 0, flow.Options{}, l.Iface(0))
	route(l, dest.Addr, policy, flow.Options{}, a.Iface(0), bb.Iface(0))
	route(a, dest.Addr, 0, flow.Options{}, e.Iface(0))
	route(bb, dest.Addr, 0, flow.Options{}, c.Iface(0))
	route(c, dest.Addr, 0, flow.Options{}, e.Iface(0))

	return &Figure3{
		Net: b.Net, Dest: dest,
		L: l.Iface(0), A: a.Iface(0), B: bb.Iface(0), C: c.Iface(0), E: e.Iface(0),
	}
}

// Figure4 is the paper's Fig. 4: router F forwards packets with TTL zero
// instead of discarding them, so router A answers two consecutive hops —
// the first with a quoted probe TTL of zero.
type Figure4 struct {
	Net     *netsim.Network
	Dest    *netsim.Host
	F, A, B netip.Addr
	// FHop is the hop number at which F sits (probes with this TTL are
	// zero-TTL-forwarded to A).
	FHop int
}

// BuildFigure4 constructs Fig. 4.
func BuildFigure4(seed int64) *Figure4 {
	b := NewBuilder(seed)
	chain := b.Chain(b.Gateway, 5) // hops 2..6
	f := b.NewRouter("F")
	b.Link(chain[4], f) // hop 7
	f.SetFaults(netsim.Faults{ZeroTTLForward: true})
	a := b.NewRouter("A")
	b.Link(f, a) // hop 8
	bb := b.NewRouter("B")
	b.Link(a, bb) // hop 9
	dest := b.AttachHost(bb, "dest", false)

	route(b.Gateway, dest.Addr, 0, flow.Options{}, chain[0].Iface(0))
	for i := 0; i < 4; i++ {
		route(chain[i], dest.Addr, 0, flow.Options{}, chain[i+1].Iface(0))
	}
	route(chain[4], dest.Addr, 0, flow.Options{}, f.Iface(0))
	route(f, dest.Addr, 0, flow.Options{}, a.Iface(0))
	route(a, dest.Addr, 0, flow.Options{}, bb.Iface(0))

	return &Figure4{
		Net: b.Net, Dest: dest,
		F: f.Iface(0), A: a.Iface(0), B: bb.Iface(0), FHop: 7,
	}
}

// Figure5 is the paper's Fig. 5: a NAT box N rewrites the Source Address of
// every ICMP message originating in its subnetwork, so routers B and C (and
// the destination) all appear as N0. The response TTL decreases hop over
// hop — the telltale the classifier uses.
type Figure5 struct {
	Net     *netsim.Network
	Dest    *netsim.Host
	A, N    netip.Addr
	B, C    netip.Addr // true (private) addresses, never seen by the tracer
	NATHops int        // number of consecutive hops answering as N0 (N, B, C, dest)
}

// BuildFigure5 constructs Fig. 5.
func BuildFigure5(seed int64) *Figure5 {
	b := NewBuilder(seed)
	chain := b.Chain(b.Gateway, 4) // hops 2..5
	a := b.NewRouter("A")
	b.Link(chain[3], a) // hop 6
	n := b.NewRouter("N")
	b.Link(a, n) // hop 7: N0 (public)
	bb := b.NewRouter("B")
	b.LinkPrivate(n, bb) // hop 8 (private)
	c := b.NewRouter("C")
	b.LinkPrivate(bb, c) // hop 9 (private)
	n.SetNAT(netsim.NAT{Public: n.Iface(0), Inside: privatePrefix})
	dest := b.AttachHost(c, "dest", true) // hop 10, private host

	route(b.Gateway, dest.Addr, 0, flow.Options{}, chain[0].Iface(0))
	for i := 0; i < 3; i++ {
		route(chain[i], dest.Addr, 0, flow.Options{}, chain[i+1].Iface(0))
	}
	route(chain[3], dest.Addr, 0, flow.Options{}, a.Iface(0))
	route(a, dest.Addr, 0, flow.Options{}, n.Iface(0))
	route(n, dest.Addr, 0, flow.Options{}, bb.Iface(0))
	route(bb, dest.Addr, 0, flow.Options{}, c.Iface(0))

	return &Figure5{
		Net: b.Net, Dest: dest,
		A: a.Iface(0), N: n.Iface(0), B: bb.Iface(0), C: c.Iface(0),
		NATHops: 4,
	}
}

// Figure6 is the paper's Fig. 6: a three-way load balancer L over branches
// A→D, B→E, C→F converging at G. Repeated classic traceroutes toward the
// destination yield per-destination graphs containing diamonds such as
// (L0, D0) and (A0, G0), while (C0, G0) has only one interface between its
// endpoints in the drawn outcome.
type Figure6 struct {
	Net              *netsim.Network
	Dest             *netsim.Host
	L, A, B, C       netip.Addr
	D, E, F, G       netip.Addr
	BranchHeads      []netip.Addr // A0, B0, C0
	BranchMids       []netip.Addr // D0, E0, F0
	ConvergencePoint netip.Addr   // G0
}

// BuildFigure6 constructs Fig. 6 with the given policy at L.
func BuildFigure6(seed int64, policy netsim.Policy) *Figure6 {
	b := NewBuilder(seed)
	chain := b.Chain(b.Gateway, 4) // hops 2..5
	l := b.NewRouter("L")
	b.Link(chain[3], l) // hop 6
	a := b.NewRouter("A")
	bb := b.NewRouter("B")
	c := b.NewRouter("C")
	b.Link(l, a)
	b.Link(l, bb)
	b.Link(l, c) // hop 7
	d := b.NewRouter("D")
	e := b.NewRouter("E")
	f := b.NewRouter("F")
	b.Link(a, d)
	b.Link(bb, e)
	b.Link(c, f) // hop 8
	g := b.NewRouter("G")
	b.Link(d, g)
	b.Link(e, g)
	b.Link(f, g) // hop 9, same G0
	dest := b.AttachHost(g, "dest", false)

	route(b.Gateway, dest.Addr, 0, flow.Options{}, chain[0].Iface(0))
	for i := 0; i < 3; i++ {
		route(chain[i], dest.Addr, 0, flow.Options{}, chain[i+1].Iface(0))
	}
	route(chain[3], dest.Addr, 0, flow.Options{}, l.Iface(0))
	route(l, dest.Addr, policy, flow.Options{}, a.Iface(0), bb.Iface(0), c.Iface(0))
	route(a, dest.Addr, 0, flow.Options{}, d.Iface(0))
	route(bb, dest.Addr, 0, flow.Options{}, e.Iface(0))
	route(c, dest.Addr, 0, flow.Options{}, f.Iface(0))
	route(d, dest.Addr, 0, flow.Options{}, g.Iface(0))
	route(e, dest.Addr, 0, flow.Options{}, g.Iface(0))
	route(f, dest.Addr, 0, flow.Options{}, g.Iface(0))

	return &Figure6{
		Net: b.Net, Dest: dest,
		L: l.Iface(0), A: a.Iface(0), B: bb.Iface(0), C: c.Iface(0),
		D: d.Iface(0), E: e.Iface(0), F: f.Iface(0), G: g.Iface(0),
		BranchHeads:      []netip.Addr{a.Iface(0), bb.Iface(0), c.Iface(0)},
		BranchMids:       []netip.Addr{d.Iface(0), e.Iface(0), f.Iface(0)},
		ConvergencePoint: g.Iface(0),
	}
}
