package topo

import (
	"net/netip"
	"strconv"

	"repro/internal/flow"
	"repro/internal/netsim"
)

// Builder assembles a network incrementally, allocating addresses from
// disjoint pools: 10/8 for public router interfaces, 192.168/16 for
// NAT-inside interfaces, 172.16/12 for destination hosts.
type Builder struct {
	Net *netsim.Network

	// Source is the measurement source address (10.0.0.1).
	Source netip.Addr
	// Gateway is the source's first-hop router.
	Gateway *netsim.Router

	// The last address drawn from each pool, and the routers created.
	pubCounter  uint32
	privCounter uint32
	hostCounter uint32
	routerSeq   int

	// hop is the one next hop of the routes Link and AttachHost add:
	// AddRoute keeps no Route's Hops, so one array serves them all.
	hop [1]netsim.NextHop
}

// NewBuilder creates a network seeded for reproducibility, with the
// measurement source and its gateway router already wired.
func NewBuilder(seed int64) *Builder {
	b := &Builder{
		Net:    netsim.New(seed),
		Source: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		// Skip 10.0.0.0/24: the source and gateway live there.
		pubCounter: 255,
	}
	gwIf := netip.AddrFrom4([4]byte{10, 0, 0, 254})
	b.Gateway = netsim.NewRouter("gw", gwIf)
	b.Net.AddRouter(b.Gateway)
	b.Net.SetSource(b.Source, gwIf)
	// Return traffic to the source is delivered directly by the gateway.
	b.Gateway.AddRoute(netsim.Route{
		Prefix: netip.PrefixFrom(b.Source, 32),
		Hops:   []netsim.NextHop{{Via: b.Source}},
	})
	return b
}

// nextPub allocates the next public interface address from 10.0.1.0 up.
func (b *Builder) nextPub() netip.Addr {
	b.pubCounter++
	c := b.pubCounter
	if c >= 1<<24-2 {
		panic("topo: public address pool exhausted")
	}
	return netip.AddrFrom4([4]byte{10, byte(c >> 16), byte(c >> 8 & 0xff), byte(c & 0xff)})
}

// nextPriv allocates the next NAT-inside interface address from 192.168/16.
func (b *Builder) nextPriv() netip.Addr {
	b.privCounter++
	c := b.privCounter
	if c >= 1<<16-2 {
		panic("topo: private address pool exhausted")
	}
	return netip.AddrFrom4([4]byte{192, 168, byte(c >> 8), byte(c & 0xff)})
}

// privatePrefix is the pool NAT-inside interfaces and hosts draw from; NAT
// routers use it as their Inside prefix.
var privatePrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 168, 0, 0}), 16)

// nextHostAddr allocates the next destination host address from 172.16/12.
func (b *Builder) nextHostAddr() netip.Addr {
	b.hostCounter++
	c := b.hostCounter
	if c >= 1<<20-2 {
		panic("topo: host address pool exhausted")
	}
	return netip.AddrFrom4([4]byte{172, byte(16 + c>>16), byte(c >> 8 & 0xff), byte(c & 0xff)})
}

// NewRouter creates and registers a router with no interfaces yet; Link
// grows it one adjacency at a time.
func (b *Builder) NewRouter(name string) *netsim.Router {
	b.routerSeq++
	if name == "" {
		name = numbered('r', b.routerSeq)
	}
	r := netsim.NewRouter(name)
	b.Net.AddRouter(r)
	return r
}

// Link creates a point-to-point adjacency between parent and child,
// allocating one public interface address on each side. The child receives a
// default route back through the parent (return-path routing), unless it
// already has one. It returns the two new interface addresses; childIf is
// the address the child will answer probes from (the "A0" of the paper's
// figures).
func (b *Builder) Link(parent, child *netsim.Router) (parentIf, childIf netip.Addr) {
	return b.link(parent, child, false)
}

// LinkPrivate is Link with addresses drawn from the NAT-inside pool.
func (b *Builder) LinkPrivate(parent, child *netsim.Router) (parentIf, childIf netip.Addr) {
	return b.link(parent, child, true)
}

func (b *Builder) link(parent, child *netsim.Router, private bool) (parentIf, childIf netip.Addr) {
	alloc := b.nextPub
	if private {
		alloc = b.nextPriv
	}
	parentIf = alloc()
	b.Net.AddIface(parent, parentIf)
	if child.NumIfaces() > 0 {
		// Converging links reuse the child's canonical address so that
		// responses carry one identity regardless of arrival direction —
		// the "both responses are generated from the same interface, E0"
		// assumption of Fig. 3.
		childIf = child.Iface(0)
	} else {
		childIf = alloc()
		b.Net.AddIface(child, childIf)
	}
	if !hasDefault(child) {
		b.hop[0].Via = parentIf
		child.AddRoute(netsim.Route{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0), Hops: b.hop[:]})
	}
	return parentIf, childIf
}

// converge links parent to a convergence router that an earlier Link gave
// its interface and default route, as Link gives every diamond and flip exit
// at its first branch: it is Link less the child's side, so only the parent
// gets a new interface and the child's routes are not looked through again.
func (b *Builder) converge(parent *netsim.Router) {
	b.Net.AddIface(parent, b.nextPub())
}

func hasDefault(r *netsim.Router) bool {
	for _, rt := range r.Routes() {
		if rt.Prefix.Bits() == 0 {
			return true
		}
	}
	return false
}

// AttachHost creates a destination host on router r, allocating the host
// address (from the 172.16/12 pool, or the NAT-inside pool when private),
// an attachment interface on r, and the /32 route on r toward the host.
func (b *Builder) AttachHost(r *netsim.Router, name string, private bool) *netsim.Host {
	var addr, rIf netip.Addr
	if private {
		addr = b.nextPriv()
		rIf = b.nextPriv()
	} else {
		addr = b.nextHostAddr()
		rIf = b.nextPub()
	}
	if name == "" {
		name = numbered('h', int(b.hostCounter))
	}
	h := netsim.NewHost(name, addr)
	b.Net.AddIface(r, rIf)
	b.Net.AttachHost(h, rIf)
	b.hop[0].Via = addr
	r.AddRoute(netsim.Route{Prefix: netip.PrefixFrom(addr, 32), Hops: b.hop[:]})
	return h
}

// numbered is the name of box n of a kind: the kind's letter, then n.
func numbered(kind byte, n int) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], kind), int64(n), 10))
}

// routeStep is one step of a destination route: router On forwards matching
// packets to one of Via (balanced by Balance when several).
type routeStep struct {
	On       *netsim.Router
	Via      []netsim.NextHop
	Balance  netsim.Policy
	FlowOpts flow.Options
}

// Chain creates n new routers linked in a line starting from `from`, and
// returns them. Each gets a default route back up the chain.
func (b *Builder) Chain(from *netsim.Router, n int) []*netsim.Router {
	out := make([]*netsim.Router, 0, n)
	cur := from
	for i := 0; i < n; i++ {
		r := b.NewRouter("")
		b.Link(cur, r)
		out = append(out, r)
		cur = r
	}
	return out
}
