package repro

import (
	"math"
	"net/netip"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/tracer"
)

func prefix32(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, 32) }

// TestFigure1Probabilities checks Section 2.1's analysis: with three probes
// per hop through a random two-way load balancer,
//
//   - the probability that one of the two devices at hop 7 goes
//     undiscovered is 0.5^3 * 2 = 0.25, and
//   - the probability that two devices are discovered at hop 7 or hop 8 or
//     both — making links ambiguous — is 0.75 + 0.25*0.75 = 0.9375.
func TestFigure1Probabilities(t *testing.T) {
	fig := topo.BuildFigure1(99, netsim.PerPacket)
	tp := netsim.NewTransport(fig.Net)

	const trials = 3000
	missed7 := 0
	ambiguous := 0
	for i := 0; i < trials; i++ {
		// Each trial is a round: identical probes in one round take the
		// same per-packet branch.
		fig.Net.SetVirtualRound(i)
		tr := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 12, ProbesPerHop: 3})
		rt, err := tr.Trace(fig.Dest.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if len(rt.All) < 8 {
			t.Fatalf("route too short: %d hops", len(rt.All))
		}
		hop7 := distinct(rt.All[6])
		hop8 := distinct(rt.All[7])
		if hop7 == 1 {
			missed7++
		}
		if hop7 == 2 || hop8 == 2 {
			ambiguous++
		}
	}
	pMiss := float64(missed7) / trials
	pAmb := float64(ambiguous) / trials
	if math.Abs(pMiss-0.25) > 0.03 {
		t.Errorf("P(miss one device at hop 7) = %.3f, want 0.25 +/- 0.03", pMiss)
	}
	if math.Abs(pAmb-0.9375) > 0.02 {
		t.Errorf("P(ambiguous links) = %.3f, want 0.9375 +/- 0.02", pAmb)
	}
}

func distinct(attempts []tracer.Hop) int {
	seen := map[string]bool{}
	for _, h := range attempts {
		if !h.Star() {
			seen[h.Addr.String()] = true
		}
	}
	return len(seen)
}

// TestLoadBalancerWidth16 exercises the paper's remark that newer Juniper
// routers permit up to sixteen equal-cost paths: all sixteen interfaces
// must be discoverable by flow enumeration, and a single Paris flow must
// hold exactly one of them.
func TestLoadBalancerWidth16(t *testing.T) {
	b := topo.NewBuilder(5)
	chain := b.Chain(b.Gateway, 2)
	lb := b.NewRouter("lb")
	b.Link(chain[1], lb)
	exit := b.NewRouter("exit")
	var heads []*netsim.Router
	for i := 0; i < 16; i++ {
		r := b.NewRouter("")
		b.Link(lb, r)
		b.Link(r, exit)
		heads = append(heads, r)
	}
	dest := b.AttachHost(exit, "dest", false)

	routeAll := func(r *netsim.Router, via ...*netsim.Router) {
		hops := make([]netsim.NextHop, len(via))
		for i, v := range via {
			hops[i] = netsim.NextHop{Via: v.Iface(0)}
		}
		r.AddRoute(netsim.Route{
			Prefix:  prefix32(dest.Addr),
			Hops:    hops,
			Balance: netsim.PerFlow,
		})
	}
	routeAll(b.Gateway, chain[0])
	routeAll(chain[0], chain[1])
	routeAll(chain[1], lb)
	routeAll(lb, heads...)
	for _, h := range heads {
		routeAll(h, exit)
	}

	tp := netsim.NewTransport(b.Net)
	seen := map[string]bool{}
	for f := 0; f < 600; f++ {
		tr := tracer.NewParisUDP(tp, tracer.Options{
			SrcPort: uint16(10000 + f), DstPort: uint16(20000 + f*3), MaxTTL: 12,
		})
		rt, err := tr.Trace(dest.Addr)
		if err != nil {
			t.Fatal(err)
		}
		// Hop 5 is the branch row; a single flow sees exactly one head.
		h := rt.Hops[4]
		if h.Star() {
			t.Fatal("unexpected star at the branch row")
		}
		seen[h.Addr.String()] = true
		if loops := anomaly.FindLoops(rt); len(loops) != 0 {
			t.Fatalf("equal-length 16-way balancer produced loops: %v", loops)
		}
	}
	if len(seen) != 16 {
		t.Errorf("flows discovered %d of 16 interfaces", len(seen))
	}
}
