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
//   - per-router IP ID sequences and configurable initial response TTLs,
//     the two observables Paris traceroute adds (Section 2.2);
//   - transient forwarding loops and mid-trace routing changes
//     (cycle causes, Section 4.2.1).
//
// Hosts, and routers addressed directly, answer UDP, Echo and TCP SYN
// probes the way the paper's pingable destinations do. A host or router
// originates every packet — such an answer, a Time Exceeded, an unreachable
// — through its origin (host.go): the source address, initial TTL and IP ID
// it stamps, and whether it is silent. The two kinds of box differ only in
// those values.
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
//     compiled — never per hop. The table holds no pointer: a node names
//     its router by index into the network's router list and its host by
//     the dense host id into its host list, so the collector never scans
//     it, and it doubles as it grows. A router keeps its interfaces as
//     4-byte addresses. The registry is guarded by an RWMutex.
//     Registration (AddRouter, AddIface, AttachHost, SetSource) takes the
//     write lock and bumps a topology generation; every Exchange
//     holds only the read lock, so packets in flight exclude topology
//     registration but not each other. Registering after the first exchange
//     stays legal.
//   - Per-router behavioural configuration (faults, NAT, initial ICMP TTL,
//     IP ID stride) lives in an immutable snapshot behind an atomic
//     pointer. The forwarding loop loads it once per router visit;
//     SetFaults and friends publish a fresh snapshot, so routing dynamics
//     (flaps, transient loops, a round's flip schedule) can be installed
//     between rounds without a lock. A mutation is seen by every exchange
//     that starts after the mutation returns; one in flight meanwhile may
//     see it at some visits and not at others. A router whose only setting
//     is a small IP ID stride publishes no snapshot of its own: it shares
//     an interned one (plainConfigs) with every router of that stride.
//   - A router stores its forwarding table pointer-free: one 12-byte entry
//     per route (the IPv4 prefix as a word and its length, the policy, and
//     a single next hop's address inline or the offset of a balanced
//     route's hop count and next hops in a per-router pool of 4-byte
//     addresses), so the collector never scans a table and a campaign's
//     hundred thousand host routes cost 12 bytes each, not a 72-byte Route
//     and a []NextHop of their own. The rare route an entry cannot spell (a
//     non-IPv4 prefix or next hop, non-default flow options) is kept whole
//     beside the entries; Routes spells every route back exactly.
//   - Forwarding tables publish an immutable compiled snapshot behind an
//     atomic pointer, exactly like the config snapshot: the stored entries
//     with every next hop resolved to a node id, the /32 entries toward
//     hosts indexed by host id, the lookup result for the source address,
//     and the topology generation all of that was resolved at. The
//     per-visit lookup is lock-free and hash-free: slice loads. Route
//     mutation (AddRoute, SetRoutes) serializes on a per-router mutex and
//     invalidates the snapshot; the next visit — under the topology read
//     lock, which keeps the registry still — rebuilds it once, as it does
//     for a snapshot whose generation a registration has since outdated.
//     The entries, the hop pool and the kept routes are only appended to
//     (AddRoute) or replaced (SetRoutes), never written in place, so a
//     published snapshot reads a prefix of arrays a mutator may be
//     appending to past its end, and indexes into it stay valid
//     indefinitely.
//   - Counters (the network probe counter, the epoch below), the per-node
//     return memos and, under dynamics, the per-node up words and link
//     draws are atomics.
//
// # Resumed and replayed walks
//
// A batched trace's walks are linear in its path length, not quadratic: the
// Paris premise is that every probe of a trace follows one forward path.
// Within one ExchangeBatch, the probes toward one destination share a
// forward ladder, and a probe resumes at the deepest hop that earlier probes
// of the batch reached through pure decisions — a TTL of 2 or more on
// arrival, no draw from the stream, no flip schedule, ForwardOverride or NAT
// at the router, and a per-flow balancer's pick only for the flow that
// started the ladder (the first probe's four transport octets). Its TTL is
// patched once and its Steps start at that hop. A reply to the measurement
// source is replayed from a one-word memo on the node that originated it,
// recorded by a reply from there that came back over plain hops only (each a
// TTL decrement from 2 or more, by a single-hop or per-destination route,
// with no draw, ForwardOverride or NAT): its TTL is patched to the arrival
// value and the return hops are added to its Steps. The hops either shortcut
// skips draw nothing and stamp no IP ID, so bytes, Steps, OK and RTT are
// those of the plain walk.
//
// Under dynamics the shortcuts skip only a hop's static work: the TTL
// patch, config load, table lookup and balancer hash. The packet's own clock
// still crosses every link. A resumed probe is charged the injection link,
// then climbs the ladder: at each node below its hop it checks that no flap
// is active and, where the node balanced, that the rotation is the one the
// ladder recorded, and is charged the link to the next node. A reply to the
// source follows the up words of the nodes it reaches instead of one memo.
// A node's up word names the node a reply to the source moves to next; the
// walk writes it on each plain hop, and under dynamics only a single next
// hop is plain (a per-destination pick moves with the rotation). A word a
// node's own reply wrote serves only the replies it originates, which skip
// the checks transit traffic meets. The replay
// charges each link, and at each router the reply transits it checks the
// TTL and that no flap is active. At the first check that fails, or at a
// stale up word, the packet goes back to the plain walk in the plain walk's
// state: node, Steps and clock, with the TTL patched once. A browned-out
// link loses the packet, with the Steps the plain walk reports.
//
// Both shortcuts are keyed by the network's epoch, which every
// registration, config publication, route mutation and SetDynamics
// advances, so a mutation is seen by every exchange that starts after the
// mutation returns. One exception: AddRoute leaves the epoch alone on a
// router whose table no walk has ever compiled. Compiling and mutating
// both hold the router's tableMu, so a walk reads a router's routes only
// by compiling its table, and a ladder or memo recorded before the first
// compile cannot depend on them. A walk that compiles after the mutation
// sees the new route at whatever epoch it started. This lets a topology
// builder install a hundred thousand routes without touching the epoch
// every exchange reads.
//
// # Exchange contract
//
// There is one way into the forwarding walk: ExchangeBatch(probes, out).
// Exchange is a batch of one. Arena ownership: the probe copy and every
// originated response are carved from a pooled arena that is recycled probe
// to probe and batch to batch; no arena memory ever escapes ExchangeBatch.
// The results are the tracer's own slots (tracer.ProbeResult), written
// through their writers: the final response is copied into the caller's
// out[i].Resp buffer, so the caller owns (and should reuse) the result
// buffers, and a result is valid until the caller passes the same slot to
// another batch. Exchange reports a probe's Steps beside its slot.
// Probes are read-only to the batch and may be recycled by the caller once
// the call returns.
//
// A Router belongs to one Network: its compiled table holds that network's
// node ids, so AddRouter and AddIface panic on a Router already registered
// in another Network.
//
// # Determinism contract
//
// One rule: every draw is a pure function of (network seed, virtual round,
// the packet's own bytes or position), never of the order probes arrive in.
// Per-packet spreading and probabilistic drops draw from a per-exchange
// SplitMix64 stream seeded from (seed, round, probe bytes); a round's flip
// schedule (FlipSchedule) is resolved from the probe's position, which its
// bytes give; the IP ID a box stamps is keyed by (seed, round, box) and
// stepped by that position (ipID); the dynamics layer keys its draws by
// (seed, link, virtual time). So the packets on the wire are the same at
// any worker or batch setting, and a resumed run needs no cursor.
// Identical probes sent in one round take the same per-packet branch and
// draw the same answer; a probe's IP ID (its index in its trace) is what
// makes retries and repeated attempts draw afresh. The walk's shortcuts
// (above) skip only hops that draw nothing, so they leave every draw as it
// was.
//
// # Virtual-clock dynamics
//
// SetDynamics installs an optional virtual-clock layer (vclock.go): seeded
// per-link propagation/bandwidth/queueing delays, background cross-traffic
// load, and scheduled dynamics — route flaps, balancer weight churn, link
// brownouts — that evolve on a virtual timeline advanced only by the links a
// packet crosses, never by the wall clock. Exchanges then report virtual RTTs
// (ProbeResult.RTT) instead of Steps × 500 µs. The layer extends, rather
// than weakens, the determinism contract: every dynamics draw is a pure
// function of (dynamics seed, arrival-interface address, virtual time), and
// a probe's virtual start time hashes the probe's own bytes off the current
// round base. With dynamics disabled (the default), the instant-and-static
// forwarding path is untouched byte for byte.
package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/keyhash"
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
// router balances across them according to Balance. It is what AddRoute and
// SetRoutes take and Routes gives back; the router stores it as a
// pointer-free 12-byte entry (see tableEntry), so neither the Route nor its
// Hops slice is retained.
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
// cause in the paper's anomaly taxonomy. It is copied into every router's
// config snapshot, so anything large hangs off a pointer.
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
	// Flip, when set, is this round's mid-trace routing change at the
	// router (see FlipSchedule).
	Flip *FlipSchedule
}

// FlipSpan bounds the positions of one round's flip schedule. A probe's
// position (position) is a hash of its destination and first two transport
// octets (the source port) mod FlipSpan/2, plus its IP ID, which tracers
// set to the probe's index within its trace plus one. So each trace starts
// at one hashed position and advances one per probe, and every trace of up
// to FlipSpan/2 probes lies within [0, FlipSpan). The span is about the
// number of probes a campaign round sends a flip pod (six destinations,
// two traces each), so a schedule toggling each position with probability
// p changes a pod's path between rounds about as often as toggling per
// probe would.
const FlipSpan = 128

// FlipSchedule is one round of a mid-trace routing change — the paper's
// "routing change ... between the time S receives the response to its probe
// with TTL 8 and the time that it emits the probe with TTL 9". While
// toggled, a transit probe the forwarding table hands to From goes to To
// instead. The state is a function of the probe's position alone: Base is
// the state at position 0, and a probe at position p sees every toggle
// below p. Two traces of one destination with different source ports sit at
// different positions, so they can see different states.
type FlipSchedule struct {
	From, To netip.Addr
	Base     bool
	// Toggles lists, ascending, the positions where the state toggles.
	Toggles []uint32
}

// toggled reports whether a probe at position pos is redirected.
func (s *FlipSchedule) toggled(pos uint32) bool {
	on := s.Base
	for _, t := range s.Toggles {
		if t >= pos {
			break
		}
		on = !on
	}
	return on
}

// saltFlip keys positions apart from every other seeded draw.
const saltFlip = 0xf11b

// position is a probe's position: where it sits on a flip schedule, and
// how far the IP IDs of a box's answer to it have stepped (ipID).
func position(seed uint64, hdr *packet.IPv4, payload []byte) uint32 {
	var port uint64
	if len(payload) >= 2 {
		port = uint64(payload[0])<<8 | uint64(payload[1])
	}
	d, _ := a4(hdr.Dst)
	h := keyhash.Mix64(seed ^ saltFlip ^ uint64(d)<<16 ^ port)
	return uint32(h%(FlipSpan/2)) + uint32(hdr.ID)
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

	// ipIDStride is the IP ID step between the answers to consecutive
	// probes of a trace; real routers also emit non-measurement traffic,
	// so strides >1 model a busy box.
	ipIDStride uint16
}

// plainConfigs are the snapshots of a router whose only setting is an IP ID
// stride below len(plainConfigs): plainConfigs[s] for stride s. Routers
// share them, so a generated topology's thousands of routers publish no
// snapshot of their own.
var plainConfigs = func() (c [8]routerConfig) {
	for s := range c {
		c[s] = routerConfig{icmpTTL: 255, ipIDStride: uint16(s)}
	}
	return c
}()

// Router is a simulated network-layer device.
type Router struct {
	Name string

	// ifaces lists the router's interface addresses, as a4 gives them;
	// index = interface number as drawn in the paper's figures (A0, A1,
	// ...). Grown only during topology building (Network.AddIface holds the
	// network write lock, excluding packets in flight).
	ifaces []uint32

	// net is the one Network this router is registered in, set (under that
	// network's write lock) by its first AddRouter/AddIface, and idx its
	// index in that network's router list; the compiled forwarding table
	// holds that network's node and host ids. The mutators load net without
	// that lock to bump the network's epoch.
	net atomic.Pointer[Network]
	idx int32

	// config is the atomically-published behavioural snapshot; see
	// routerConfig.
	config atomic.Pointer[routerConfig]

	// tableMu serializes route mutators and snapshot rebuilds; the lookup
	// hot path never takes it (it loads the snapshot pointer instead).
	tableMu sync.Mutex
	// table is the mutable route list, guarded by tableMu. Nothing in it
	// is mutated in place — mutators append or install a fresh store — so
	// a published snapshot's prefix of it stays valid forever.
	table routeStore
	// everCompiled is set, under tableMu, by the first compile: until then
	// no walk has read the table, so AddRoute need not advance the epoch.
	everCompiled bool
	// snap is the atomically-published compiled table, rebuilt on demand
	// after a mutation (mutators clear it; the next lookup pays the one
	// O(table) rebuild) or a registration (its generation no longer
	// matches). nil means stale. Like the config snapshot, this keeps the
	// per-visit hot path free of locks and shared counters.
	snap atomic.Pointer[routerTable]

	// key keys the IP IDs the router stamps (ipID): the FNV-1a of its name,
	// shared by all its interfaces (one router, one IP ID sequence, which
	// alias resolution relies on) and kept as the topology grows around it.
	// Boxes of one name share it, so a topology names its boxes apart.
	key uint64

	// mu serializes config writers (read-modify-write of the snapshot).
	mu sync.Mutex
}

// NewRouter creates a router with the given name and interface addresses.
// Interface 0 is conventionally the upstream (source-facing) interface.
func NewRouter(name string, ifaces ...netip.Addr) *Router {
	r := &Router{Name: name, key: keyhash.FNV1a(keyhash.FNVOffset64, []byte(name))}
	for _, a := range ifaces {
		r.ifaces = append(r.ifaces, mustA4(a))
	}
	r.config.Store(&plainConfigs[1])
	return r
}

// Iface returns the address of interface i.
func (r *Router) Iface(i int) netip.Addr {
	if i < 0 || i >= len(r.ifaces) {
		panic(fmt.Sprintf("netsim: router %s has no interface %d", r.Name, i))
	}
	return addrOf(r.ifaces[i])
}

// NumIfaces returns the number of interfaces.
func (r *Router) NumIfaces() int { return len(r.ifaces) }

// updateConfig publishes a new behavioural snapshot: what f makes of the
// current one, shared from plainConfigs when it is one of those.
func (r *Router) updateConfig(f func(routerConfig) routerConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bumpEpoch()
	defer r.bumpEpoch()
	cfg := f(*r.config.Load())
	if s := int(cfg.ipIDStride); s < len(plainConfigs) && cfg == plainConfigs[s] {
		r.config.Store(&plainConfigs[s])
		return
	}
	own := cfg // escapes here alone, so a shared snapshot allocates nothing
	r.config.Store(&own)
}

// bumpEpoch advances the epoch of the network r is registered in, if any.
// Mutators call it before and after their change, so the epoch is odd while
// the change is in flight and has moved on once it returns (Network.epoch).
func (r *Router) bumpEpoch() {
	if n := r.net.Load(); n != nil {
		n.epoch.Add(1)
	}
}

// tableEntry is one stored route: 12 pointer-free bytes, so a table of
// thousands of host routes is one flat array the collector never scans. The
// prefix is its IPv4 address bits as given (Prefix.Contains ignores those
// past its length) and its length; form says where the next hops are (see
// routeStore).
type tableEntry struct {
	addr   uint32
	hop    uint32
	bits   uint8
	policy uint8
	form   uint8
}

// The forms of a tableEntry.
const (
	// formOne: hop is the single next hop's address.
	formOne = iota
	// formPool: more.pool[hop] is the hop count n, and
	// more.pool[hop+1:hop+1+n] the next hops' addresses.
	formPool
	// formOdd: more.odd[hop] is the route, kept whole.
	formOdd
)

// noMatch is the prefix length of an entry whose prefix matches nothing.
const noMatch = 0xff

// contains reports whether the entry's prefix, of 32 bits or fewer,
// contains the address with key k. A shift by the full 32 bits (a /0)
// leaves 0, which every address matches.
func (e *tableEntry) contains(k uint32) bool {
	return (e.addr^k)>>(32-e.bits) == 0
}

// routeStore is a forwarding table as a router stores it: one entry per
// route, in installation order, and, behind more, the next hops of the
// balanced entries as a pool of 4-byte addresses and the rare route no
// entry can spell — a non-IPv4 or invalid prefix, a non-IPv4 next hop, no
// next hop, a policy past a byte, flow options other than the paper's
// default (an ablation's five-tuple) — kept whole in odd, so Routes gives it
// back exactly and the walk reads its hops, policy and flow options there.
// An odd route's entry still holds its prefix, one that matches nothing
// unless it is a valid IPv4 one. A router with neither, most of a
// campaign's, pays one nil pointer for them. The arrays are only ever
// appended to or replaced, never overwritten in place, and more is replaced
// on every change to it, so a snapshot's copy of the store stays valid as
// the router's grows.
type routeStore struct {
	entries []tableEntry
	more    *moreRoutes
}

// moreRoutes is the part of a routeStore few routers need.
type moreRoutes struct {
	pool []uint32
	odd  []Route
}

// add appends rt.
func (s *routeStore) add(rt Route) {
	e := tableEntry{bits: noMatch, policy: uint8(rt.Balance)}
	if k, ok := a4(rt.Prefix.Addr()); ok && rt.Prefix.IsValid() {
		e.addr, e.bits = k, uint8(rt.Prefix.Bits())
	}
	spelled := e.bits != noMatch && Policy(e.policy) == rt.Balance && rt.FlowOpts == (flow.Options{}) && len(rt.Hops) > 0
	for _, h := range rt.Hops {
		spelled = spelled && h.Via.Is4()
	}
	if spelled && len(rt.Hops) == 1 {
		e.hop, _ = a4(rt.Hops[0].Via)
		s.entries = append(s.entries, e)
		return
	}
	var m moreRoutes
	if s.more != nil {
		m = *s.more
	}
	if spelled {
		e.hop, e.form = uint32(len(m.pool)), formPool
		m.pool = append(m.pool, uint32(len(rt.Hops)))
		for _, h := range rt.Hops {
			k, _ := a4(h.Via)
			m.pool = append(m.pool, k)
		}
	} else {
		e.hop, e.form = uint32(len(m.odd)), formOdd
		rt.Hops = slices.Clone(rt.Hops)
		m.odd = append(m.odd, rt)
	}
	s.more = &m
	s.entries = append(s.entries, e)
}

// width returns the number of next hops of entry e.
func (s *routeStore) width(e *tableEntry) int {
	switch e.form {
	case formOne:
		return 1
	case formPool:
		return int(s.more.pool[e.hop])
	default:
		return len(s.more.odd[e.hop].Hops)
	}
}

// balance returns the policy and flow options entry e balances by.
func (s *routeStore) balance(e *tableEntry) (Policy, flow.Options) {
	if e.form == formOdd {
		rt := &s.more.odd[e.hop]
		return rt.Balance, rt.FlowOpts
	}
	return Policy(e.policy), flow.Options{}
}

// via returns the address of next hop i of entry e.
func (s *routeStore) via(e *tableEntry, i int) netip.Addr {
	switch e.form {
	case formOne:
		return addrOf(e.hop)
	case formPool:
		return addrOf(s.more.pool[e.hop+1+uint32(i)])
	default:
		return s.more.odd[e.hop].Hops[i].Via
	}
}

// routes spells the stored routes out, each with hops of its own.
func (s *routeStore) routes() []Route {
	out := make([]Route, len(s.entries))
	for i := range s.entries {
		e := &s.entries[i]
		if e.form == formOdd {
			out[i] = s.more.odd[e.hop]
			out[i].Hops = slices.Clone(out[i].Hops)
			continue
		}
		hops := make([]NextHop, s.width(e))
		for j := range hops {
			hops[j] = NextHop{s.via(e, j)}
		}
		out[i] = Route{Prefix: netip.PrefixFrom(addrOf(e.addr), int(e.bits)), Hops: hops, Balance: Policy(e.policy)}
	}
	return out
}

// addrOf is the IPv4 address with key k (a4's inverse).
func addrOf(k uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)})
}

// routerTable is the immutable compiled forwarding table: the stored routes
// it was built from, with every next hop in them resolved once against the
// network's registry, so the walk indexes where it used to hash. The
// routeStore is the router's as of the build, sharing its backing arrays,
// which is safe because those are never overwritten in place and the
// snapshot's lengths bound every access.
type routerTable struct {
	// gen is the topology generation the addresses were resolved at; a
	// table from an older generation is stale (see Network.gen).
	gen uint64
	routeStore
	// next[i] is the node id of entry i's only next hop (nodeNone: nothing
	// registered there) — all the walk needs of the common single-hop entry.
	// An entry to balance over several next hops (or with none) holds
	// -2-off instead, its hops' node ids sitting at hops[off:] in the
	// route's hop order.
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
	// prefixIdx lists the indices of the other entries that match anything,
	// so the LPM fallback scans only real prefixes (a handful: pod subnets
	// and the default route) instead of the thousands of indexed host routes.
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
	if r.everCompiled {
		r.bumpEpoch()
		defer r.bumpEpoch()
		r.snap.Store(nil)
	}
	r.table.add(rt)
	return r
}

// SetRoutes replaces the entire forwarding table.
func (r *Router) SetRoutes(rts []Route) {
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	r.bumpEpoch()
	defer r.bumpEpoch()
	s := routeStore{entries: make([]tableEntry, 0, len(rts))}
	for _, rt := range rts {
		s.add(rt)
	}
	r.table = s
	r.snap.Store(nil)
}

// Routes returns a copy of the forwarding table, each route as it was
// installed.
func (r *Router) Routes() []Route {
	r.tableMu.Lock()
	defer r.tableMu.Unlock()
	return r.table.routes()
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
	r.everCompiled = true
	return t
}

func compileTable(n *Network, s routeStore) *routerTable {
	entries := s.entries
	t := &routerTable{gen: n.gen, routeStore: s, next: make([]int32, len(entries))}
	// hostOf[i] is the dense id of the host entry i is a /32 for, else -1.
	hostOf := make([]int32, len(entries))
	lo, hi := int32(0), int32(-1)
	for i := range entries {
		e := &entries[i]
		if w := s.width(e); w == 1 {
			t.next[i] = n.nodeOf(s.via(e, 0))
		} else {
			t.next[i] = -2 - int32(len(t.hops))
			for j := range w {
				t.hops = append(t.hops, n.nodeOf(s.via(e, j)))
			}
		}
		hostOf[i] = -1
		switch e.bits {
		case noMatch:
			continue
		case 32:
		default:
			t.prefixIdx = append(t.prefixIdx, int32(i))
			continue
		}
		if id, ok := n.ids[e.addr]; ok && n.nodes[id].hostID >= 0 {
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
		t.host32[e.addr] = int32(i)
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
	r.updateConfig(func(cfg routerConfig) routerConfig { cfg.faults = f; return cfg })
	return r
}

// SetNAT configures source rewriting for packets leaving the inside prefix.
func (r *Router) SetNAT(n NAT) *Router {
	r.updateConfig(func(cfg routerConfig) routerConfig { cfg.nat = n; return cfg })
	return r
}

// SetICMPTTL sets the initial TTL for ICMP messages this router originates.
func (r *Router) SetICMPTTL(ttl uint8) *Router {
	r.updateConfig(func(cfg routerConfig) routerConfig { cfg.icmpTTL = ttl; return cfg })
	return r
}

// SetIPIDStride sets the step between the router's IP IDs in its answers to
// consecutive probes of a trace.
func (r *Router) SetIPIDStride(stride uint16) *Router {
	if stride == 0 {
		stride = 1
	}
	r.updateConfig(func(cfg routerConfig) routerConfig { cfg.ipIDStride = stride; return cfg })
	return r
}

// routerOrigin is router r, under config snapshot cfg, as the source of a
// packet it originates from interface address from in answer to the packet
// hdr, payload: the snapshot's initial ICMP TTL and silence, and the IP ID
// its stride gives.
func routerOrigin(ctx *exchCtx, r *Router, cfg *routerConfig, from netip.Addr, hdr *packet.IPv4, payload []byte) origin {
	return origin{from, cfg.icmpTTL, ipID(ctx, r.key, cfg.ipIDStride, hdr, payload), cfg.faults.Silent}
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
	k, v4 := a4(dst)
	if !v4 {
		return best
	}
	for _, i := range t.prefixIdx {
		if e := &t.entries[i]; int(e.bits) > bestLen && e.contains(k) {
			best, bestLen = i, int(e.bits)
		}
	}
	return best
}

// selectHop chooses one of n equal-cost next hops — its index in the
// route's hop order — by the route's policy and flow options, for the packet
// with the given parsed header and transport payload; PerPacket spreading
// draws from the exchange's stream. rot is the virtual-clock weight-churn
// rotation (0 outside churn windows): it offsets the hashed bucket of the
// flow-keyed policies, remapping flows to different next hops without
// perturbing the hash itself — weight churn in real routers likewise remaps
// buckets while the flow key stays stable. ok is false for a route with no
// next hop, an unknown policy or key kind.
func selectHop(policy Policy, opts flow.Options, n int, hdr *packet.IPv4, payload []byte, ctx *exchCtx, rot int) (i int, ok bool) {
	if n <= 1 {
		return 0, n == 1
	}
	switch policy {
	case PerFlow:
	case PerPacket:
		return ctx.stream().Intn(n), true
	case PerDestination:
		opts = flow.Options{Kind: flow.KeyDestination}
	default:
		return 0, false
	}
	k, err := flow.FromParsed(hdr, payload, opts)
	if err != nil {
		return 0, false
	}
	return (k.Bucket(n) + rot) % n, true
}
