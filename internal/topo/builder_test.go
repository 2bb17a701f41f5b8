package topo

import (
	"net/netip"
	"testing"

	"repro/internal/flow"
	"repro/internal/netsim"
	"repro/internal/tracer"
)

func TestNewBuilderWiring(t *testing.T) {
	b := NewBuilder(1)
	if !b.Source.IsValid() || b.Gateway == nil {
		t.Fatal("builder missing source or gateway")
	}
	if b.Net.Source() != b.Source {
		t.Error("network source not registered")
	}
	// The gateway must deliver return traffic to the source.
	found := false
	for _, rt := range b.Gateway.Routes() {
		if rt.Prefix == netip.PrefixFrom(b.Source, 32) {
			found = true
		}
	}
	if !found {
		t.Error("gateway lacks the source return route")
	}
}

func TestAddressPoolsDisjoint(t *testing.T) {
	b := NewBuilder(1)
	r1 := b.NewRouter("")
	r2 := b.NewRouter("")
	pubA, pubB := b.Link(b.Gateway, r1)
	privA, privB := b.LinkPrivate(r1, r2)
	host := b.AttachHost(r2, "", false)
	for _, a := range []netip.Addr{pubA, pubB} {
		if !netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 8).Contains(a) {
			t.Errorf("public address %v outside 10/8", a)
		}
	}
	for _, a := range []netip.Addr{privA, privB} {
		if !privatePrefix.Contains(a) {
			t.Errorf("private address %v outside %v", a, privatePrefix)
		}
	}
	if !netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, 0, 0}), 12).Contains(host.Addr) {
		t.Errorf("host address %v outside 172.16/12", host.Addr)
	}
	// No collision with the reserved source block.
	if pubA == b.Source || pubB == b.Source {
		t.Error("allocator returned the source address")
	}
}

func TestLinkReusesCanonicalChildIface(t *testing.T) {
	b := NewBuilder(1)
	parent1 := b.NewRouter("")
	parent2 := b.NewRouter("")
	b.Link(b.Gateway, parent1)
	b.Link(b.Gateway, parent2)
	child := b.NewRouter("")
	_, if1 := b.Link(parent1, child)
	_, if2 := b.Link(parent2, child)
	if if1 != if2 {
		t.Errorf("converging links gave different child addresses: %v vs %v", if1, if2)
	}
	if child.NumIfaces() != 1 {
		t.Errorf("child has %d interfaces, want 1 canonical", child.NumIfaces())
	}
}

func TestLinkDefaultRouteOnlyOnce(t *testing.T) {
	b := NewBuilder(1)
	r := b.NewRouter("")
	b.Link(b.Gateway, r)
	other := b.NewRouter("")
	b.Link(b.Gateway, other)
	b.Link(other, r) // second parent: must not overwrite the default
	defaults := 0
	for _, rt := range r.Routes() {
		if rt.Prefix.Bits() == 0 {
			defaults++
		}
	}
	if defaults != 1 {
		t.Errorf("child has %d default routes, want 1", defaults)
	}
}

func TestChainLengthsAndOrder(t *testing.T) {
	b := NewBuilder(1)
	chain := b.Chain(b.Gateway, 5)
	if len(chain) != 5 {
		t.Fatalf("chain length %d", len(chain))
	}
	// Each chain router responds at the expected hop when routed.
	dest := b.AttachHost(chain[4], "d", false)
	route(b.Gateway, dest.Addr, 0, flowOptsZero(), chain[0].Iface(0))
	for i := 0; i+1 < len(chain); i++ {
		route(chain[i], dest.Addr, 0, flowOptsZero(), chain[i+1].Iface(0))
	}
	tp := netsim.NewTransport(b.Net)
	rt, err := tracer.NewParisUDP(tp, tracer.Options{MaxTTL: 10}).Trace(dest.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Hops) != 7 { // gw + 5 chain + host
		t.Fatalf("hops = %d, want 7: %v", len(rt.Hops), rt.Addresses())
	}
	for i, r := range chain {
		if rt.Hops[i+1].Addr != r.Iface(0) {
			t.Errorf("hop %d = %v, want %v", i+2, rt.Hops[i+1].Addr, r.Iface(0))
		}
	}
	if !rt.Reached() {
		t.Errorf("halt = %v", rt.Halt)
	}
}

func TestAttachHostPrivate(t *testing.T) {
	b := NewBuilder(1)
	r := b.NewRouter("")
	b.Link(b.Gateway, r)
	h := b.AttachHost(r, "priv", true)
	if !privatePrefix.Contains(h.Addr) {
		t.Errorf("private host at %v", h.Addr)
	}
	// The attachment route must exist on r.
	found := false
	for _, rt := range r.Routes() {
		if rt.Prefix == netip.PrefixFrom(h.Addr, 32) {
			found = true
		}
	}
	if !found {
		t.Error("attachment route missing")
	}
}

// flowOptsZero returns the zero flow options (default router behaviour).
func flowOptsZero() flow.Options { return flow.Options{} }
