package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/keyhash"
	"repro/internal/packet"
)

// defaultMaxSteps bounds the number of node traversals a single injected
// packet (and the response it triggers) may make. Packets caught in
// forwarding loops normally die by TTL expiry long before this guard.
const defaultMaxSteps = 1024

// Network is a simulated IPv4 network: a set of routers and hosts joined by
// point-to-point adjacencies (NextHop.Via names the remote interface).
//
// Exchange is the tracer-facing entry point: it injects a serialized probe
// at the measurement source's gateway and returns whatever response packet
// makes it back to the source, simulating both the forward and the return
// path hop by hop.
//
// Exchange is safe for concurrent use and concurrent calls run in parallel:
// the topology registry below is read-mostly (registration takes the write
// lock, every exchange only a read lock), per-router configuration is an
// atomically-swapped snapshot, and all counters are atomics. See the
// package comment for the full concurrency model and determinism contract.
type Network struct {
	// topoMu guards the topology registry. Building (AddRouter, AddIface,
	// AttachHost, SetSource, OnSend) takes the write lock; Exchange holds
	// the read lock for the whole forwarding walk, so topology mutation
	// never races a packet in flight while exchanges proceed in parallel
	// with each other.
	topoMu sync.RWMutex

	// nodes is the topology registry, indexed by node id: every address the
	// topology has named under the write lock — interfaces, hosts, host
	// gateways, the source and its gateway — owns one dense id for good,
	// whether or not anything is registered there yet. The forwarding walk
	// moves from id to id; ids maps the 4-byte IPv4 address to the id and
	// is consulted only when something is resolved (a packet's destination,
	// a forwarding table being compiled), never per hop.
	nodes []netNode
	ids   map[uint32]int32
	// hosts counts the dense host ids handed out (netNode.hostID).
	hosts int32
	// gen is the topology generation, bumped under the write lock by every
	// registration. Compiled forwarding tables are stamped with it (see
	// routerTable), so a table that resolved addresses against an older
	// registry is rebuilt exactly as a mutated one is.
	gen uint64

	source    netip.Addr // the measurement source address
	srcNode   int32      // its node id: nothing need be registered there
	srcGW     int32      // node the source's packets enter through
	haveEntry bool

	// seed fixes all randomized behaviour. Each Exchange derives its own
	// SplitMix64 stream from (seed, probe counter), so random draws never
	// contend on a shared generator.
	seed uint64
	// RandomPerPacket selects random spreading for PerPacket balancers;
	// when false, routers round-robin deterministically. Set it before
	// the first Exchange; it is read locklessly on the hot path.
	RandomPerPacket bool

	maxSteps int

	// dyn is the compiled virtual-clock dynamics layer (nil when
	// disabled), published atomically like a routerConfig snapshot so
	// SetDynamics never races an exchange. vround is the current virtual
	// round base; RoundStart hooks advance it between rounds. See
	// vclock.go for the model and its determinism contract.
	dyn    atomic.Pointer[dynamics]
	vround atomic.Int64

	probeCount atomic.Int64
	onSend     []func(count int, probe []byte)
}

// New creates an empty network. seed fixes all randomized behaviour
// (per-packet balancing, probabilistic drops), keeping runs reproducible.
func New(seed int64) *Network {
	return &Network{
		ids:             make(map[uint32]int32),
		srcNode:         nodeNone,
		srcGW:           nodeNone,
		seed:            uint64(seed),
		RandomPerPacket: true,
		maxSteps:        defaultMaxSteps,
	}
}

// nodeNone is the node id of an address the registry has never been told
// about (or that is not IPv4): packets handed to it are dropped.
const nodeNone int32 = -1

// netNode is one registry entry: the router or host answering at an
// interface address (at most one is non-nil; neither for an address that
// was only ever named, which drops what it is handed), plus, for hosts,
// their dense host id and the gateway their responses enter the network
// through.
type netNode struct {
	router *Router
	host   *Host
	key    uint32 // the interface address, as a4 gives it
	hostID int32  // -1 unless host is set
	hostGW int32
}

// addr returns the node's interface address.
func (nd *netNode) addr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(nd.key >> 24), byte(nd.key >> 16), byte(nd.key >> 8), byte(nd.key)})
}

// a4 maps an address to its registry key. ok is false for anything but a
// plain IPv4 address, which can never be registered.
func a4(a netip.Addr) (uint32, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), true
}

// mustA4 is a4 for registration paths, where a non-IPv4 address is a
// topology bug.
func mustA4(a netip.Addr) uint32 {
	k, ok := a4(a)
	if !ok {
		panic(fmt.Sprintf("netsim: %v is not an IPv4 address", a))
	}
	return k
}

// internLocked returns the node id of the address with key k, giving it one
// if this is its first mention.
func (n *Network) internLocked(k uint32) int32 {
	id, ok := n.ids[k]
	if !ok {
		id = int32(len(n.nodes))
		n.nodes = append(n.nodes, netNode{key: k, hostID: -1, hostGW: nodeNone})
		n.ids[k] = id
		if dy := n.dyn.Load(); dy != nil {
			dy.links = append(dy.links, linkSlot{})
		}
	}
	return id
}

// internAddrLocked is internLocked for addresses that name an adjacency (a
// gateway): anything but IPv4 is legal there and leads nowhere.
func (n *Network) internAddrLocked(a netip.Addr) int32 {
	k, ok := a4(a)
	if !ok {
		return nodeNone
	}
	return n.internLocked(k)
}

// nodeOf resolves an address against the registry: its node id, or nodeNone.
// Callers hold topoMu.
func (n *Network) nodeOf(a netip.Addr) int32 {
	if k, ok := a4(a); ok {
		if id, ok := n.ids[k]; ok {
			return id
		}
	}
	return nodeNone
}

// AddRouter registers a router; each of its interface addresses becomes
// routable within the network.
func (n *Network) AddRouter(r *Router) *Router {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.adoptLocked(r)
	for _, a := range r.ifaces {
		n.registerIfaceLocked(r, a)
	}
	return r
}

// adoptLocked binds r to this network. A router's compiled forwarding table
// holds this network's node ids, so the shard rule is enforced here: one
// Router, one Network.
func (n *Network) adoptLocked(r *Router) {
	if r.net != nil && r.net != n {
		panic(fmt.Sprintf("netsim: router %s is already registered in another Network; the shard rule gives a router to exactly one shard's Network (replicate it instead)", r.Name))
	}
	r.net = n
	n.gen++
}

func (n *Network) registerIfaceLocked(r *Router, a netip.Addr) {
	nd := &n.nodes[n.internLocked(mustA4(a))]
	if nd.host != nil {
		panic(fmt.Sprintf("netsim: interface %v already owned by a host", a))
	}
	if nd.router != nil && nd.router != r {
		panic(fmt.Sprintf("netsim: interface %v already owned by router %s", a, nd.router.Name))
	}
	nd.router = r
}

// AddIface allocates a new interface on r with address a, registering it in
// the network, and returns its interface index. Topology builders use this
// to grow routers one adjacency at a time.
func (n *Network) AddIface(r *Router, a netip.Addr) int {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.adoptLocked(r)
	n.registerIfaceLocked(r, a)
	r.ifaces = append(r.ifaces, a)
	return len(r.ifaces) - 1
}

// AttachHost registers a host and the router interface it hangs off.
// Responses the host generates enter the network at gateway.
func (n *Network) AttachHost(h *Host, gateway netip.Addr) *Host {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	id := n.internLocked(mustA4(h.Addr))
	if n.nodes[id].router != nil {
		panic(fmt.Sprintf("netsim: host address %v already owned by a router", h.Addr))
	}
	gw := n.internAddrLocked(gateway) // may grow n.nodes
	nd := &n.nodes[id]
	if nd.host == nil {
		nd.hostID = n.hosts
		n.hosts++
	}
	nd.host, nd.hostGW = h, gw
	n.gen++
	return h
}

// SetSource declares the measurement source address and the interface its
// probes enter the network through (its first-hop gateway).
func (n *Network) SetSource(src, gateway netip.Addr) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.source = src
	n.srcNode = n.internAddrLocked(src)
	n.srcGW = n.internAddrLocked(gateway)
	n.haveEntry = true
	n.gen++
}

// Source returns the measurement source address.
func (n *Network) Source() netip.Addr {
	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	return n.source
}

// RouterAt returns the router owning the given interface address.
func (n *Network) RouterAt(a netip.Addr) (*Router, bool) {
	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	id := n.nodeOf(a)
	if id < 0 || n.nodes[id].router == nil {
		return nil, false
	}
	return n.nodes[id].router, true
}

// OnSend registers a hook invoked with the running probe count and the
// serialized probe before each probe forwards; the hook must treat the probe
// as read-only and must itself be safe for concurrent invocation, since
// parallel exchanges call it in parallel. Routing-change and forwarding-loop
// injection hang off this hook. Hooks run under the topology read lock: they
// may rewrite routes and faults (RewriteRoutes, SetFaults — the very next
// router visit sees the change), and must not register topology (AddRouter,
// AddIface, AttachHost, SetSource and OnSend take the write lock and would
// self-deadlock).
func (n *Network) OnSend(f func(count int, probe []byte)) {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.onSend = append(n.onSend, f)
}

// ProbeCount returns the number of probes injected so far.
func (n *Network) ProbeCount() int {
	return int(n.probeCount.Load())
}

// SetProbeCount restores the probe counter, e.g. when resuming a
// checkpointed campaign: per-exchange randomness is seeded by this counter,
// so restoring it replays the exact per-probe random stream the interrupted
// run would have drawn. Call it only while no exchanges are in flight.
func (n *Network) SetProbeCount(c int) {
	n.probeCount.Store(int64(c))
}

// prng is a tiny lock-free SplitMix64 stream private to one exchange. It
// replaces the shared *rand.Rand the old single-lock engine serialized on:
// each Exchange seeds its own stream from (network seed, probe counter), so
// random behaviour stays reproducible for a given probe order without any
// cross-exchange coordination.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	v := keyhash.Mix64(p.state)
	p.state += keyhash.Golden64
	return v
}

// Float64 returns a uniform sample in [0, 1).
func (p *prng) Float64() float64 { return float64(p.next()>>11) / (1 << 53) }

// Intn returns a uniform sample in [0, n). The modulo bias is below 2^-48
// for the branch widths (<= 16) routers balance across.
func (p *prng) Intn(n int) int { return int(p.next() % uint64(n)) }

// Exchange injects the serialized IPv4 probe at the source gateway and
// simulates forwarding until a response packet reaches the source, the
// probe is dropped, or the step guard trips. It returns the serialized
// response, which the caller owns, and the total number of node traversals
// (a latency proxy). ok is false when no response comes back (a star).
//
// Exchange is ExchangeBatch with one probe — there is one way into the
// walk — so it is safe for concurrent use, and concurrent calls forward in
// parallel under the topology read lock.
func (n *Network) Exchange(probe []byte) (resp []byte, steps int, ok bool) {
	var out [1]ExchangeResult
	n.ExchangeBatch([][]byte{probe}, out[:])
	return out[0].Resp, out[0].Steps, out[0].OK
}

// dstRef is a packet's destination address resolved against the registry,
// once per packet version: everything the per-hop decisions ask about it.
type dstRef struct {
	node   int32   // the destination's node id, or nodeNone
	host   int32   // its dense host id, or -1
	router *Router // the router owning it, if it is a router interface
	source bool    // it is the measurement source address
}

// resolveDst resolves a packet's destination. Responses, nearly all of them
// addressed to the source, cost no map access; a probe costs one.
func (n *Network) resolveDst(a netip.Addr) dstRef {
	d := dstRef{node: nodeNone, host: -1, source: a == n.source}
	if d.source {
		d.node = n.srcNode
	} else {
		d.node = n.nodeOf(a)
	}
	if d.node >= 0 {
		nd := &n.nodes[d.node]
		d.host, d.router = nd.hostID, nd.router
	}
	return d
}

// run is the forwarding engine. pkt is located at node `at` (or originates
// at the router owning it when originated is true). Must be called with
// n.topoMu read-held. The IPv4 header is parsed, and its destination
// resolved against the registry, once per packet version (injection, host
// response, originated ICMP) and threaded through the walk; a hop is then a
// node-table index, an atomic config load and a compiled-table index. ctx
// carries the probe's RNG stream, the arena and the virtual clock.
func (n *Network) run(ctx *exchCtx, pkt []byte, at int32, originated bool) (resp []byte, steps int, ok bool) {
	var hdr packet.IPv4
	payload, err := packet.ParseIPv4Into(pkt, &hdr)
	if err != nil {
		return nil, 0, false
	}
	dst := n.resolveDst(hdr.Dst)
	// Injection crosses the first link (source → gateway) on the virtual
	// clock; every further traversal is charged where the packet moves
	// (host handoff, loop bottom). Originated ICMP replies are built in
	// place and charge nothing until they move.
	if ctx.dyn != nil && !n.advanceClock(ctx, at, nil, len(pkt)) {
		return nil, 0, false
	}
	for ; steps < n.maxSteps; steps++ {
		// Final delivery to the measurement source.
		if at == n.srcNode && dst.source {
			return pkt, steps, true
		}
		if at < 0 {
			return nil, steps, false // unregistered or non-IPv4 adjacency
		}
		nd := &n.nodes[at]

		// Delivery to a host.
		if h := nd.host; h != nil {
			if dst.node != at {
				return nil, steps, false // mis-delivered; drop
			}
			r := h.respond(ctx, &hdr, payload, pkt)
			if r == nil {
				return nil, steps, false
			}
			pkt, at, originated = r, nd.hostGW, false
			if payload, err = packet.ParseIPv4Into(pkt, &hdr); err != nil {
				return nil, steps, false
			}
			dst = n.resolveDst(hdr.Dst)
			if ctx.dyn != nil && !n.advanceClock(ctx, at, nil, len(pkt)) {
				return nil, steps, false
			}
			continue
		}

		r := nd.router
		if r == nil {
			return nil, steps, false // dangling adjacency
		}
		cfg := r.config.Load()

		var reply []byte
		switch {
		case !originated && dst.router == r:
			// Packet addressed to one of the router's own interfaces: the
			// router behaves like a host (intermediate hops are pingable).
			if reply = routerRespondLocal(ctx, r, cfg, hdr.Dst, &hdr, payload, pkt); reply == nil {
				return nil, steps, false
			}
		case !originated:
			var done bool
			if done, reply = routerTTLCheck(ctx, r, cfg, nd, pkt, &hdr, payload); done && reply == nil {
				return nil, steps, false
			}
		}
		if reply == nil {
			// Forwarding decision.
			next, via, rep, dropped := n.routerForward(ctx, r, cfg, nd, &dst, pkt, &hdr, payload, originated)
			if dropped {
				return nil, steps, false
			}
			if rep == nil {
				if ctx.dyn != nil && !n.advanceClock(ctx, next, via, len(pkt)) {
					return nil, steps, false
				}
				at, originated = next, false
				continue
			}
			reply = rep
		}
		// The router originated a packet of its own: a new packet version.
		pkt, originated = reply, true
		if payload, err = packet.ParseIPv4Into(pkt, &hdr); err != nil {
			return nil, steps, false
		}
		dst = n.resolveDst(hdr.Dst)
	}
	return nil, steps, false
}

// routerTTLCheck applies TTL processing for a transit packet arriving at
// router r on interface nd. done=true means the packet will not be
// forwarded as-is: either reply is the ICMP error the router originates, or
// nil for a silent drop.
func routerTTLCheck(ctx *exchCtx, r *Router, cfg *routerConfig, nd *netNode, pkt []byte, hdr *packet.IPv4, payload []byte) (done bool, reply []byte) {
	switch {
	case hdr.TTL == 0:
		// Arrived already dead (zero-TTL forwarded upstream): quote TTL 0.
		if cfg.faults.Silent {
			return true, nil
		}
		return true, originateTimeExceeded(ctx, r, cfg, nd.addr(), pkt, hdr, payload)
	case hdr.TTL == 1:
		if cfg.faults.ZeroTTLForward {
			// The Fig. 4 misbehaviour: forward with TTL 0.
			if err := packet.PatchTTL(pkt, 0); err != nil {
				return true, nil
			}
			hdr.TTL = 0
			return false, nil
		}
		if cfg.faults.Silent {
			return true, nil
		}
		return true, originateTimeExceeded(ctx, r, cfg, nd.addr(), pkt, hdr, payload)
	default:
		if err := packet.PatchTTL(pkt, hdr.TTL-1); err != nil {
			return true, nil
		}
		hdr.TTL--
		return false, nil
	}
}

// routerForward looks up and applies the forwarding decision for pkt at r,
// reached on interface nd. Exactly one of (next, reply, dropped) is
// meaningful: reply is an originated ICMP error; dropped means silence;
// otherwise the packet moves to node next. When nothing is registered there
// (next is nodeNone) via is the adjacency's address, which still keys the
// link on the virtual clock.
func (n *Network) routerForward(ctx *exchCtx, r *Router, cfg *routerConfig, nd *netNode, dst *dstRef, pkt []byte, hdr *packet.IPv4, payload []byte, originated bool) (next int32, via *netip.Addr, reply []byte, dropped bool) {
	isTransitProbe := !originated
	if cfg.faults.Unreachable && isTransitProbe {
		return nodeNone, nil, originateUnreachable(ctx, r, cfg, nd.addr(), pkt, hdr, payload), false
	}
	// Scheduled dynamics at this router, evaluated functionally from the
	// arrival interface and the virtual arrival time (never from router
	// state, which concurrent probes at different virtual times share).
	var rot int
	if ctx.dyn != nil {
		if isTransitProbe && ctx.dyn.flapActive(nd.key, ctx.clk.now) {
			// Route flap: transit routes transiently withdrawn.
			return nodeNone, nil, originateUnreachable(ctx, r, cfg, nd.addr(), pkt, hdr, payload), false
		}
		rot = ctx.dyn.weightRot(nd.key, ctx.clk.now)
	}
	if cfg.faults.ForwardOverride.IsValid() && !originated {
		// The transient-loop gadget is rare enough to resolve per use.
		return n.nodeOf(cfg.faults.ForwardOverride), &cfg.faults.ForwardOverride, nil, false
	}
	t := r.compiled(n)
	e := t.lookup(dst, hdr.Dst)
	if e < 0 {
		if originated {
			return nodeNone, nil, nil, true // can't route our own ICMP; drop
		}
		return nodeNone, nil, originateUnreachable(ctx, r, cfg, nd.addr(), pkt, hdr, payload), false
	}
	if cfg.faults.DropProbability > 0 && !originated && ctx.rng.Float64() < cfg.faults.DropProbability {
		return nodeNone, nil, nil, true
	}
	// A single next hop is in the compiled table; only an entry to balance
	// (or the rare hop below that needs its address) reads the Route.
	next, i := t.next[e], 0
	if next < nodeNone {
		var hopRng *prng
		if n.RandomPerPacket {
			hopRng = &ctx.rng
		}
		var err error
		if i, err = r.selectHop(&t.entries[e], hdr, payload, hopRng, rot); err != nil {
			return nodeNone, nil, nil, true
		}
		next = t.hops[-2-next+int32(i)]
	}
	// NAT egress rewriting (Fig. 5): packets whose source lies inside the
	// NAT prefix leaving for an outside adjacency get the public address.
	nat := &cfg.nat
	if next < 0 || nat.Enabled() {
		via = &t.entries[e].Hops[i].Via
		if nat.Enabled() && hdr.Src.Is4() && nat.Inside.Contains(hdr.Src) && !nat.Inside.Contains(*via) {
			if err := packet.PatchSrc(pkt, nat.Public); err == nil {
				hdr.Src = nat.Public
			}
		}
	}
	return next, via, nil, false
}

// quoteOf returns the RFC 792 quotation of the packet: its IP header plus
// the first eight payload octets. The returned slice aliases pkt; callers
// hand it to MarshalIPv4ICMPInto, which copies it out before returning.
func quoteOf(pkt []byte, hdr *packet.IPv4, payload []byte) []byte {
	qn := 8
	if len(payload) < qn {
		qn = len(payload)
	}
	return pkt[:hdr.HeaderLen()+qn]
}

// originateTimeExceeded builds the serialized ICMP Time Exceeded response
// for pkt arriving on interface `at` of router r (quoting pkt as received,
// per Section 2.2: normal behaviour quotes probe TTL 1).
func originateTimeExceeded(ctx *exchCtx, r *Router, cfg *routerConfig, at netip.Addr, pkt []byte, hdr *packet.IPv4, payload []byte) []byte {
	if isICMPError(hdr, payload) {
		return nil // never generate ICMP about ICMP errors (RFC 792)
	}
	m := packet.ICMP{
		Type:    packet.ICMPTypeTimeExceeded,
		Code:    packet.CodeTTLExceeded,
		Payload: quoteOf(pkt, hdr, payload),
	}
	return marshalFromRouter(ctx, r, cfg, at, hdr.Src, &m)
}

func originateUnreachable(ctx *exchCtx, r *Router, cfg *routerConfig, at netip.Addr, pkt []byte, hdr *packet.IPv4, payload []byte) []byte {
	faults := cfg.faults
	if faults.Silent || isICMPError(hdr, payload) {
		return nil
	}
	code := faults.UnreachableCode
	if !faults.Unreachable && code == 0 {
		code = packet.CodeNetUnreachable // no route: network unreachable
	} else if faults.Unreachable && faults.UnreachableCode == 0 {
		code = packet.CodeHostUnreachable
	}
	m := packet.ICMP{
		Type:    packet.ICMPTypeDestUnreachable,
		Code:    code,
		Payload: quoteOf(pkt, hdr, payload),
	}
	return marshalFromRouter(ctx, r, cfg, at, hdr.Src, &m)
}

func marshalFromRouter(ctx *exchCtx, r *Router, cfg *routerConfig, from, to netip.Addr, m *packet.ICMP) []byte {
	ip := packet.IPv4{
		TTL:      cfg.icmpTTL,
		Protocol: packet.ProtoICMP,
		ID:       r.nextIPID(cfg),
		Src:      from,
		Dst:      to,
	}
	out, err := packet.MarshalIPv4ICMPInto(ctx.arena.take(packet.IPv4ICMPLen(&ip, m)), &ip, m)
	if err != nil {
		return nil
	}
	return out
}

// routerRespondLocal answers a probe addressed to the router itself.
func routerRespondLocal(ctx *exchCtx, r *Router, cfg *routerConfig, local netip.Addr, hdr *packet.IPv4, payload, pkt []byte) []byte {
	if cfg.faults.Silent {
		return nil
	}
	switch hdr.Protocol {
	case packet.ProtoUDP:
		m := packet.ICMP{
			Type:    packet.ICMPTypeDestUnreachable,
			Code:    packet.CodePortUnreachable,
			Payload: quoteOf(pkt, hdr, payload),
		}
		return marshalFromRouter(ctx, r, cfg, local, hdr.Src, &m)
	case packet.ProtoICMP:
		var em packet.ICMP
		if err := packet.ParseICMPInto(payload, &em); err != nil || em.Type != packet.ICMPTypeEchoRequest {
			return nil
		}
		reply := packet.ICMP{
			Type:    packet.ICMPTypeEchoReply,
			ID:      em.ID,
			Seq:     em.Seq,
			Payload: em.Payload, // copied out by MarshalIPv4ICMPInto
		}
		return marshalFromRouter(ctx, r, cfg, local, hdr.Src, &reply)
	case packet.ProtoTCP:
		var th packet.TCP
		if _, _, err := packet.ParseTCPInto(payload, &th); err != nil {
			return nil
		}
		seg, err := packet.MarshalTCP(local, hdr.Src, &packet.TCP{
			SrcPort: th.DstPort,
			DstPort: th.SrcPort,
			Ack:     th.Seq + 1,
			Flags:   packet.TCPRst | packet.TCPAck,
			Window:  65535,
		}, nil)
		if err != nil {
			return nil
		}
		ip := packet.IPv4{
			TTL:      cfg.icmpTTL,
			Protocol: packet.ProtoTCP,
			ID:       r.nextIPID(cfg),
			Src:      local,
			Dst:      hdr.Src,
		}
		out, err := ip.MarshalInto(ctx.arena.take(ip.HeaderLen()+len(seg)), seg)
		if err != nil {
			return nil
		}
		return out
	default:
		return nil
	}
}

// isICMPError reports whether the parsed packet is an ICMP error message
// (which must never trigger further ICMP errors).
func isICMPError(hdr *packet.IPv4, payload []byte) bool {
	if hdr.Protocol != packet.ProtoICMP || len(payload) < 1 {
		return false
	}
	t := payload[0]
	return t == packet.ICMPTypeTimeExceeded || t == packet.ICMPTypeDestUnreachable
}
