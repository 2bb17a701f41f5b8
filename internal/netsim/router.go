// Package netsim is a deterministic packet-level IPv4 network simulator.
//
// It substitutes for the live Internet in the paper's measurement study.
// Probes are real serialized IPv4 packets;
// routers parse them, hash actual header octets for per-flow load balancing,
// decrement real TTLs with incremental checksum updates, and quote the true
// on-the-wire bytes in ICMP errors — so the tracers built on top cannot
// distinguish the simulator from a cooperative real network.
//
// The simulator reproduces every router behaviour the paper's anomaly
// taxonomy depends on:
//
//   - equal-cost multipath with per-flow, per-packet, and per-destination
//     balancing policies (Section 2.1);
//   - ICMP Time Exceeded generation with correct probe-TTL quoting,
//     including the zero-TTL-forwarding misbehaviour (Fig. 4);
//   - Destination Unreachable generation when a route is withdrawn
//     (the "unreachability message" loop cause, Section 4.1.1);
//   - NAT boxes that rewrite the Source Address of ICMP messages
//     originating inside their subnetwork (Fig. 5);
//   - per-router IP ID counters and configurable initial response TTLs,
//     the two observables Paris traceroute adds (Section 2.2);
//   - transient forwarding loops and mid-trace routing changes
//     (cycle causes, Section 4.2.1).
//
// # Concurrency model
//
// Network.Exchange is safe for concurrent use, and concurrent exchanges
// forward in parallel — the engine that lets the measurement campaign's 32
// workers (Section 3) actually run side by side. The design is read-mostly:
//
//   - The Network's topology registry is a node table: every address the
//     topology names (interfaces, hosts, their gateways, the source and its
//     gateway) owns a dense node id, hosts a dense host id besides, and the
//     address -> id map is consulted only to resolve something — a packet's
//     destination once per packet version, a forwarding table when it is
//     compiled — never per hop. The registry is guarded by an RWMutex.
//     Registration (AddRouter, AddIface, AttachHost, SetSource, OnSend)
//     takes the write lock and bumps a topology generation; every Exchange
//     holds only the read lock, so packets in flight exclude topology
//     registration but not each other. Registering after the first exchange
//     stays legal.
//   - Per-router behavioural configuration (faults, NAT, initial ICMP TTL,
//     IP ID stride) lives in an immutable snapshot behind an atomic
//     pointer. The forwarding loop loads it once per router visit;
//     SetFaults and friends publish a fresh snapshot, so routing dynamics
//     (flaps, transient loops, mid-trace flips) can be injected while
//     probes are in flight without a lock.
//   - Forwarding tables publish an immutable compiled snapshot behind an
//     atomic pointer, exactly like the config snapshot: the entry list with
//     every next hop resolved to a node id, the /32 entries toward hosts
//     indexed by host id, the lookup result for the source address, and the
//     topology generation all of that was resolved at. The per-visit lookup
//     is lock-free and hash-free: slice loads. Route mutation (AddRoute,
//     SetRoutes, RewriteRoutes) serializes on a per-router mutex and
//     invalidates the snapshot; the next visit — under the topology read
//     lock, which keeps the registry still — rebuilds it once, as it does
//     for a snapshot whose generation a registration has since outdated.
//     Entries are never mutated in place, so indexes into a published
//     snapshot stay valid indefinitely.
//   - Counters (the network probe counter, per-router IP ID and
//     round-robin counters, per-host IP ID) are atomics.
//
// # Exchange contract
//
// There is one way into the forwarding walk: ExchangeBatch(probes, out).
// Exchange is a batch of one, and a batch is deterministically equivalent to
// exchanging its probes one at a time in slice order:
//
//   - The batch reserves one contiguous block of the network probe counter
//     up front, so probe i derives exactly the (seed, counter) SplitMix64
//     stream — and OnSend hooks observe exactly the count — it would have
//     alone. Interleaving with other goroutines' exchanges permutes counter
//     assignment across call sites but never within a batch.
//   - OnSend hooks run between probes, before probe i forwards, under the
//     topology read lock the batch holds across the whole call; OnSend says
//     what a hook may and may not do there.
//   - Arena ownership: the probe copy and every originated response are
//     carved from a pooled arena that is recycled probe to probe and batch
//     to batch; no arena memory ever escapes ExchangeBatch. The final
//     response is copied out with append-truncate into the caller's
//     out[i].Resp, so the caller owns (and should reuse) the result
//     buffers, and a result is valid until the caller passes the same slot
//     to another batch. Probes are read-only to the batch and may be
//     recycled by the caller once the call returns.
//
// # Shard ownership
//
// Beyond one concurrent Network, campaigns scale out horizontally by
// partitioning a topology across several fully independent Networks
// (topo.GenConfig.Shards, dispatched by ShardedTransport). The shard rule:
// a router or host belongs to exactly one shard's Network, and cross-shard
// addresses are unroutable by construction — no shard's forwarding tables
// name an interface registered in another shard, so no lock, counter, or
// cache line is ever shared between shards. For routers the rule is
// enforced: a Router's compiled table holds its Network's node ids, so
// AddRouter and AddIface panic on a Router already registered in another
// Network. Only the spine (gateway, core, transit routers) is replicated per
// shard, with identical interface addresses, which keeps measured routes
// independent of the shard count; the replicas are distinct Router objects
// with their own IP ID counters, so spine IP IDs advance per shard rather
// than globally (schedule-free statistics are unaffected; see the
// determinism contract below).
//
// # Determinism contract
//
// All randomized behaviour (random per-packet spreading, probabilistic
// drops) derives from a per-exchange SplitMix64 stream seeded with
// (network seed, probe counter); there is no shared random generator.
// Consequences:
//
//   - A fully deterministic topology (per-flow and per-destination
//     balancing only, no drop faults, no per-probe hooks) yields
//     bit-identical traces for a given probe, regardless of how many
//     exchanges run concurrently: the forwarding decision is a pure
//     function of the probe bytes. Campaign statistics are then identical
//     for 1 and for 32 workers (asserted by TestCampaignWorkerInvariance).
//   - Deterministic round-robin (RandomPerPacket = false) and every other
//     counter-driven observable (IP IDs) depend on the arrival order of
//     probes at each router, exactly as on a real router shared by
//     concurrent measurement processes.
//   - With randomness in play, a sequential run is reproducible seed-for-
//     seed: probe counter values — and hence per-exchange random streams —
//     are assigned in submission order. Concurrent runs draw the same
//     per-probe streams but interleave counter assignment by schedule,
//     which is the regime the paper's own parallel campaign operates in;
//     figure-level statistics are schedule-free in expectation.
//
// # Virtual-clock dynamics
//
// SetDynamics installs an optional virtual-clock layer (vclock.go): seeded
// per-link propagation/bandwidth/queueing delays, background cross-traffic
// load, and scheduled dynamics — route flaps, balancer weight churn, link
// brownouts — that evolve on a virtual timeline advanced only by the links a
// packet crosses, never by the wall clock. Exchanges then report virtual RTTs
// (ExchangeResult.RTT). The layer extends, rather than weakens,
// the determinism contract: every dynamics draw is a pure function of
// (dynamics seed, arrival-interface address, virtual time), and a probe's
// virtual start time hashes the probe's own bytes off the current round
// base — never the probe counter — so with dynamics enabled, same-seed
// campaign statistics remain byte-identical at any shard, worker, or batch
// setting. With dynamics disabled (the default), the instant-and-static
// forwarding path is untouched byte for byte.
package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/packet"
)

// Policy selects how a router spreads traffic over equal-cost next hops.
type Policy int

const (
	// PerFlow forwards all packets of one flow to the same next hop.
	PerFlow Policy = iota
	// PerPacket spreads packets over next hops regardless of flow,
	// focusing purely on maintaining an even load.
	PerPacket
	// PerDestination selects the next hop from the destination address
	// only; from the measurement point of view this is equivalent to
	// classic single-path routing.
	PerDestination
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PerFlow:
		return "per-flow"
	case PerPacket:
		return "per-packet"
	case PerDestination:
		return "per-destination"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// NextHop names an adjacency: the remote interface address the packet is
// handed to. The remote address must belong to a Router or Host registered
// in the same Network.
type NextHop struct {
	Via netip.Addr
}

// Route is a forwarding-table entry. When several next hops are present the
// router balances across them according to Balance.
type Route struct {
	Prefix  netip.Prefix
	Hops    []NextHop
	Balance Policy
	// FlowOpts configures flow-key extraction for PerFlow balancing.
	// The zero value is the paper's observed router behaviour: hash the
	// addresses, protocol, and first four transport octets.
	FlowOpts flow.Options
}

// Faults configures deliberate misbehaviours of a router, each mapping to a
// cause in the paper's anomaly taxonomy.
type Faults struct {
	// Silent suppresses all ICMP generation: probes expiring here appear
	// as stars ('*') in traceroute output.
	Silent bool
	// ZeroTTLForward makes the router forward packets whose TTL it has
	// just decremented to zero instead of discarding them — the
	// misconfiguration behind Fig. 4's loops. The downstream router then
	// answers with a quoted probe TTL of zero.
	ZeroTTLForward bool
	// Unreachable makes the router refuse to forward any transit packet:
	// it answers probes with TTL 1 normally (Time Exceeded) but returns
	// Destination Unreachable for anything it would have to forward,
	// reproducing the "unreachability message" loop cause.
	Unreachable bool
	// UnreachableCode selects the Destination Unreachable code used when
	// Unreachable is set (CodeHostUnreachable => "!H", CodeNetUnreachable
	// => "!N"). Defaults to host-unreachable.
	UnreachableCode uint8
	// DropProbability drops forwarded packets at random with the given
	// probability, producing mid-route stars.
	DropProbability float64
	// ForwardOverride, when valid, makes the router hand every transit
	// packet to this adjacency regardless of its forwarding table. It is
	// the transient forwarding-loop gadget: pointing it back at the
	// upstream router makes packets ping-pong until their TTL expires,
	// producing the paper's "truly cyclic routes" (Section 4.2.1).
	ForwardOverride netip.Addr
}

// NAT configures source-address rewriting. A router with a valid NAT acts
// as the gateway of Fig. 5: any packet leaving Inside (source address within
// Inside, next hop outside it) has its Source Address replaced with Public.
type NAT struct {
	Public netip.Addr
	Inside netip.Prefix
}

// Enabled reports whether the NAT configuration is active.
func (n NAT) Enabled() bool { return n.Public.IsValid() }

// routerConfig is the immutable behavioural snapshot of a router: the
// read-mostly configuration the forwarding hot path consults on every
// visit. Mutators build a fresh copy and publish it atomically, so readers
// never lock and never observe a torn update.
type routerConfig struct {
	faults Faults
	nat    NAT

	// icmpTTL is the initial TTL of ICMP messages this router originates.
	// Most routers use 255 (Section 4.1.1); some stacks use 64 or 128.
	icmpTTL uint8

	// ipIDStride is the counter increment per originated packet; real
	// routers also emit non-measurement traffic, so strides >1 model a
	// busy box.
	ipIDStride uint16
}

// Router is a simulated network-layer device.
type Router struct {
	Name string

	// ifaces lists the router's interface addresses; index = interface
	// number as drawn in the paper's figures (A0, A1, ...). Grown only
	// during topology building (Network.AddIface holds the network write
	// lock, excluding packets in flight).
	ifaces []netip.Addr

	// net is the one Network this router is registered in, set (under that
	// network's write lock) by its first AddRouter/AddIface; the compiled
	// forwarding table holds that network's node and host ids.
	net *Network

	// config is the atomically-published behavioural snapshot; see
	// routerConfig.
	config atomic.Pointer[routerConfig]

	// tableMu serializes route mutators and snapshot rebuilds; the lookup
	// hot path never takes it (it loads the snapshot pointer instead).
	tableMu sync.Mutex
	// table is the mutable route list, guarded by tableMu. Entries are
	// never mutated in place — mutators append or install a fresh slice —
	// so pointers into a published snapshot stay valid forever.
	table []Route
	// snap is the atomically-published compiled table, rebuilt on demand
	// after a mutation (mutators clear it; the next lookup pays the one
	// O(table) rebuild) or a registration (its generation no longer
	// matches). nil means stale. Like the config snapshot, this keeps the
	// per-visit hot path free of locks and shared counters.
	snap atomic.Pointer[routerTable]

	// ipID is the router's internal counter stamped (mod 2^16) into the
	// IP ID of every packet it originates, "usually incremented for each
	// packet sent" (Section 2.2).
	ipID atomic.Uint32

	// perPacketCounter drives round-robin PerPacket balancing when the
	// network is configured for deterministic (non-random) spreading.
	perPacketCounter atomic.Uint64

	// mu serializes config writers (read-modify-write of the snapshot).
	mu sync.Mutex
}

// NewRouter creates a router with the given name and interface addresses.
// Interface 0 is conventionally the upstream (source-facing) interface.
func NewRouter(name string, ifaces ...netip.Addr) *Router {
	r := &Router{
		Name:   name,
		ifaces: append([]netip.Addr(nil), ifaces...),
	}
	r.config.Store(&routerConfig{icmpTTL: 255, ipIDStride: 1})
	return r
}

// Iface returns the address of interface i.
func (r *Router) Iface(i int) netip.Addr {
	if i < 0 || i >= len(r.ifaces) {
		panic(fmt.Sprintf("netsim: router %s has no interface %d", r.Name, i))
	}
	return r.ifaces[i]
}

// NumIfaces returns the number of interfaces.
func (r *Router) NumIfaces() int { return len(r.ifaces) }

// updateConfig publishes a new behavioural snapshot produced by applying f
// to a copy of the current one.
func (r *Router) updateConfig(f func(*routerConfig)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cfg := *r.config.Load()
	f(&cfg)
	r.config.Store(&cfg)
}

// routerTable is the immutable compiled forwarding table: the route entries
// it was built from, with every address in them resolved once against the
// network's registry, so the walk indexes where it used to hash. entries
// shares the mutable table's backing array at build time; that is safe
// because entries are never overwritten in place and the snapshot's length
// bounds every access.
type routerTable struct {
	// gen is the topology generation the addresses were resolved at; a
	// table from an older generation is stale (see Network.gen).
	gen     uint64
	entries []Route
	// next[i] is the node id of entry i's only next hop (nodeNone: nothing
	// registered there) — all the walk needs of the common single-hop entry.
	// An entry to balance over several next hops (or with none) holds
	// -2-off instead, its hops' node ids sitting at hops[off:] in Route.Hops
	// order.
	next []int32
	hops []int32
	// dense indexes the /32 entries toward hosts by dense host id, offset by
	// base and spanning only the ids this router routes (a pod router's
	// handful, a spine router's all); -1 marks a host with no entry here.
	// Campaign topologies install one host route per destination along each
	// path, so core routers carry thousands of them.
	base  int32
	dense []int32
	// host32 indexes the remaining /32 entries — those for addresses that
	// are not hosts — by the 4-byte address.
	host32 map[uint32]int32
	// prefixIdx lists the indices of non-/32 entries, so the LPM fallback
	// scans only real prefixes (a handful: pod subnets and the default
	// route) instead of the thousands of indexed host routes.
	prefixIdx []int32
	// srcEntry is the lookup result for the measurement source address,
	// which every response on its way back asks for at every hop.
	srcEntry int32
}

// AddRoute appends a forwarding-table entry. Entries are matched by longest
// prefix; ties go to the earliest entry.
func (r *Router) AddRoute(rt Route) *Router {
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	r.table = append(r.table, rt)
	r.snap.Store(nil)
	return r
}

// RewriteRoutes applies f to every forwarding-table entry, replacing each
// with its return value. Routing-change injection (mid-trace flips,
// transient forwarding loops) uses this to mutate tables atomically.
func (r *Router) RewriteRoutes(f func(Route) Route) {
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	fresh := make([]Route, 0, len(r.table))
	for _, rt := range r.table {
		fresh = append(fresh, f(rt))
	}
	r.table = fresh
	r.snap.Store(nil)
}

// SetRoutes replaces the entire forwarding table (used by routing-change
// injection between or during traces).
func (r *Router) SetRoutes(rts []Route) {
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	r.table = append([]Route(nil), rts...)
	r.snap.Store(nil)
}

// Routes returns a copy of the forwarding table.
func (r *Router) Routes() []Route {
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	return append([]Route(nil), r.table...)
}

// compiled returns the current forwarding table compiled against n's
// registry, rebuilding it (once, under tableMu, with double-checked
// publication) when a route mutation invalidated it or a registration
// outdated it. The caller holds n.topoMu, which keeps n.gen and the registry
// still.
func (r *Router) compiled(n *Network) *routerTable {
	if t := r.snap.Load(); t != nil && t.gen == n.gen {
		return t
	}
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	if t := r.snap.Load(); t != nil && t.gen == n.gen {
		return t
	}
	t := compileTable(n, r.table)
	r.snap.Store(t)
	return t
}

func compileTable(n *Network, entries []Route) *routerTable {
	t := &routerTable{gen: n.gen, entries: entries, next: make([]int32, len(entries))}
	// hostOf[i] is the dense id of the host entry i is a /32 for, else -1.
	hostOf := make([]int32, len(entries))
	lo, hi := int32(0), int32(-1)
	for i := range entries {
		e := &entries[i]
		if len(e.Hops) == 1 {
			t.next[i] = n.nodeOf(e.Hops[0].Via)
		} else {
			t.next[i] = -2 - int32(len(t.hops))
			for _, h := range e.Hops {
				t.hops = append(t.hops, n.nodeOf(h.Via))
			}
		}
		hostOf[i] = -1
		k, v4 := a4(e.Prefix.Addr())
		if !v4 || e.Prefix.Bits() != 32 {
			t.prefixIdx = append(t.prefixIdx, int32(i))
			continue
		}
		if id, ok := n.ids[k]; ok && n.nodes[id].host != nil {
			h := n.nodes[id].hostID
			if hi < lo {
				lo = h // the first host entry opens the span
			}
			lo, hi, hostOf[i] = min(lo, h), max(hi, h), h
			continue
		}
		if t.host32 == nil {
			t.host32 = make(map[uint32]int32)
		}
		t.host32[k] = int32(i)
	}
	t.base, t.dense = lo, make([]int32, hi-lo+1)
	for i := range t.dense {
		t.dense[i] = -1
	}
	for i, h := range hostOf {
		if h >= 0 {
			t.dense[h-lo] = int32(i) // the last entry for a host wins, as in host32
		}
	}
	src := n.resolveDst(n.source)
	src.source = false
	t.srcEntry = t.lookup(&src, n.source)
	return t
}

// SetFaults replaces the router's fault configuration.
func (r *Router) SetFaults(f Faults) *Router {
	r.updateConfig(func(cfg *routerConfig) { cfg.faults = f })
	return r
}

// SetNAT configures source rewriting for packets leaving the inside prefix.
func (r *Router) SetNAT(n NAT) *Router {
	r.updateConfig(func(cfg *routerConfig) { cfg.nat = n })
	return r
}

// SetICMPTTL sets the initial TTL for ICMP messages this router originates.
func (r *Router) SetICMPTTL(ttl uint8) *Router {
	r.updateConfig(func(cfg *routerConfig) { cfg.icmpTTL = ttl })
	return r
}

// SetIPIDStride sets the per-packet increment of the router's IP ID counter.
func (r *Router) SetIPIDStride(stride uint16) *Router {
	if stride == 0 {
		stride = 1
	}
	r.updateConfig(func(cfg *routerConfig) { cfg.ipIDStride = stride })
	return r
}

// nextIPID advances and returns the router's IP ID counter. The counter
// accumulates in 32 bits and is truncated, which equals 16-bit modular
// addition per originated packet.
func (r *Router) nextIPID(cfg *routerConfig) uint16 {
	return uint16(r.ipID.Add(uint32(cfg.ipIDStride)))
}

// lookup performs longest-prefix match for a resolved destination and
// returns the index of the matching entry, or -1. The /32 indexes go first:
// a slice load for the source and for hosts, a map probe only for the odd
// packet addressed to neither. The index stays valid because snapshot
// entries are never mutated in place.
func (t *routerTable) lookup(d *dstRef, dst netip.Addr) int32 {
	switch {
	case d.source:
		return t.srcEntry
	case d.host >= 0:
		if i := d.host - t.base; uint32(i) < uint32(len(t.dense)) && t.dense[i] >= 0 {
			return t.dense[i]
		}
	case len(t.host32) > 0:
		if k, ok := a4(dst); ok {
			if i, hit := t.host32[k]; hit {
				return i
			}
		}
	}
	best, bestLen := int32(-1), -1
	for _, i := range t.prefixIdx {
		rt := &t.entries[i]
		if rt.Prefix.Contains(dst) && rt.Prefix.Bits() > bestLen {
			best, bestLen = i, rt.Prefix.Bits()
		}
	}
	return best
}

// selectHop chooses one of the route's equal-cost next hops — its index in
// rt.Hops — for the packet with the given parsed header and transport
// payload. rng is nil for deterministic round-robin PerPacket spreading. rot
// is the virtual-clock weight-churn rotation (0 outside churn windows): it
// offsets the hashed bucket of the flow-keyed policies, remapping flows to
// different next hops without perturbing the hash itself — weight churn in
// real routers likewise remaps buckets while the flow key stays stable.
func (r *Router) selectHop(rt *Route, hdr *packet.IPv4, payload []byte, rng *prng, rot int) (int, error) {
	n := len(rt.Hops)
	if n == 0 {
		return 0, fmt.Errorf("netsim: route %v on %s has no next hops", rt.Prefix, r.Name)
	}
	if n == 1 {
		return 0, nil
	}
	switch rt.Balance {
	case PerFlow:
		k, err := flow.FromParsed(hdr, payload, rt.FlowOpts)
		if err != nil {
			return 0, err
		}
		return (k.Bucket(n) + rot) % n, nil
	case PerPacket:
		if rng != nil {
			return rng.Intn(n), nil
		}
		return int((r.perPacketCounter.Add(1) - 1) % uint64(n)), nil
	case PerDestination:
		k, err := flow.FromParsed(hdr, payload, flow.Options{Kind: flow.KeyDestination})
		if err != nil {
			return 0, err
		}
		return (k.Bucket(n) + rot) % n, nil
	default:
		return 0, fmt.Errorf("netsim: unknown balance policy %v", rt.Balance)
	}
}
