package topo

import (
	"fmt"
	"net/netip"

	"repro/internal/flow"
	"repro/internal/netsim"
)

// addrPool holds the allocation counters a Builder draws addresses and
// router names from. Sharded generation hands one pool to several builders
// (one per shard network) so a destination keeps the same address no matter
// how many shards the topology is partitioned into; a pool copy can also be
// used to replay an allocation sequence, which is how the per-shard spine
// replicas end up with identical interface addresses.
type addrPool struct {
	pubCounter  uint32
	privCounter uint32
	hostCounter uint32
	routerSeq   int
}

// newAddrPool returns a pool with the conventional starting points.
func newAddrPool() *addrPool {
	// Skip 10.0.0.0/24: the source and gateway live there.
	return &addrPool{pubCounter: 255}
}

// Builder assembles a network incrementally, allocating addresses from
// disjoint pools: 10/8 for public router interfaces, 192.168/16 for
// NAT-inside interfaces, 172.16/12 for destination hosts.
type Builder struct {
	Net *netsim.Network

	// Source is the measurement source address (10.0.0.1).
	Source netip.Addr
	// Gateway is the source's first-hop router.
	Gateway *netsim.Router

	pool *addrPool
}

// NewBuilder creates a network seeded for reproducibility, with the
// measurement source and its gateway router already wired.
func NewBuilder(seed int64) *Builder {
	return newPooledBuilder(seed, newAddrPool())
}

// newPooledBuilder is NewBuilder drawing addresses from a caller-supplied
// (possibly shared) pool.
func newPooledBuilder(seed int64, pool *addrPool) *Builder {
	b := &Builder{
		Net:    netsim.New(seed),
		Source: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		pool:   pool,
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
	b.pool.pubCounter++
	c := b.pool.pubCounter
	if c >= 1<<24-2 {
		panic("topo: public address pool exhausted")
	}
	return netip.AddrFrom4([4]byte{10, byte(c >> 16), byte(c >> 8 & 0xff), byte(c & 0xff)})
}

// nextPriv allocates the next NAT-inside interface address from 192.168/16.
func (b *Builder) nextPriv() netip.Addr {
	b.pool.privCounter++
	c := b.pool.privCounter
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
	b.pool.hostCounter++
	c := b.pool.hostCounter
	if c >= 1<<20-2 {
		panic("topo: host address pool exhausted")
	}
	return netip.AddrFrom4([4]byte{172, byte(16 + c>>16), byte(c >> 8 & 0xff), byte(c & 0xff)})
}

// NewRouter creates and registers a router with no interfaces yet; Link
// grows it one adjacency at a time.
func (b *Builder) NewRouter(name string) *netsim.Router {
	b.pool.routerSeq++
	if name == "" {
		name = fmt.Sprintf("r%d", b.pool.routerSeq)
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
		child.AddRoute(netsim.Route{
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0),
			Hops:   []netsim.NextHop{{Via: parentIf}},
		})
	}
	return parentIf, childIf
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
		name = fmt.Sprintf("h%d", b.pool.hostCounter)
	}
	h := netsim.NewHost(name, addr)
	b.Net.AddIface(r, rIf)
	b.Net.AttachHost(h, rIf)
	r.AddRoute(netsim.Route{
		Prefix: netip.PrefixFrom(addr, 32),
		Hops:   []netsim.NextHop{{Via: addr}},
	})
	return h
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
