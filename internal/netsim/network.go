package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/keyhash"
	"repro/internal/packet"
	"repro/internal/tracer"
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
	// AttachHost, SetSource) takes the write lock; Exchange holds
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
	// a forwarding table being compiled), never per hop. A node holds no
	// pointer: it names its box by index into routers or hosts, so the
	// collector never scans the table.
	nodes []netNode
	ids   map[uint32]int32
	// routers lists the registered routers by Router.idx, hosts the
	// attached hosts by dense host id (netNode.hostID).
	routers []*Router
	hosts   []*Host
	// gen is the topology generation, bumped under the write lock by every
	// registration. Compiled forwarding tables are stamped with it (see
	// routerTable), so a table that resolved addresses against an older
	// registry is rebuilt exactly as a mutated one is.
	gen uint64

	source    netip.Addr // the measurement source address
	srcNode   int32      // its node id: nothing need be registered there
	srcGW     int32      // node the source's packets enter through
	haveEntry bool

	// seed fixes all randomized behaviour. Each exchange derives its own
	// SplitMix64 stream from (seed, virtual round, probe bytes), so random
	// draws never contend on a shared generator nor depend on arrival order.
	seed uint64

	maxSteps int

	// dyn is the compiled virtual-clock dynamics layer (nil when
	// disabled), published atomically like a routerConfig snapshot so
	// SetDynamics never races an exchange. vround is the current virtual
	// round, which keys every exchange's stream and, with dynamics, its
	// start time; RoundStart hooks advance it between rounds. See
	// vclock.go for the model and its determinism contract.
	dyn    atomic.Pointer[dynamics]
	vround atomic.Int64

	// probeCount is a metric only: no draw reads it.
	probeCount atomic.Int64

	// epoch counts the changes a resumed or replayed walk could observe
	// (see ladder and netNode.ret): it goes odd, then even, around every
	// router config publication, route mutation and SetDynamics, and
	// advances by two at every registration. A ladder or return memo is
	// used only at the even epoch it was recorded at.
	epoch atomic.Uint64

	// plain turns both shortcuts off, and tally, when set, counts what they
	// skip: test seams (export_test.go), set before the first exchange.
	plain bool
	tally *walkTally
}

// New creates an empty network. seed fixes all randomized behaviour
// (per-packet balancing, probabilistic drops, flip positions), keeping runs
// reproducible.
func New(seed int64) *Network {
	return &Network{
		ids:      make(map[uint32]int32),
		srcNode:  nodeNone,
		srcGW:    nodeNone,
		seed:     uint64(seed),
		maxSteps: defaultMaxSteps,
	}
}

// nodeNone is the node id of an address the registry has never been told
// about (or that is not IPv4): packets handed to it are dropped.
const nodeNone int32 = -1

// netNode is one registry entry: the router or host answering at an
// interface address (at most one is set; neither for an address that was
// only ever named, which drops what it is handed), plus, for hosts, the
// gateway their responses enter the network through. 24 pointer-free
// bytes.
type netNode struct {
	router int32  // index into Network.routers, or -1
	hostID int32  // dense host id, index into Network.hosts, or -1
	key    uint32 // the interface address, as a4 gives it
	hostGW int32
	// ret is the return memo of the replies this node originates: the epoch
	// (top 40 bits), the steps from origination to delivery (16 bits) and
	// the TTL the reply reaches the source with (8 bits), recorded by the
	// last reply that got back over plain hops only (see Network.replay).
	ret atomic.Uint64
}

// addr returns the node's interface address.
func (nd *netNode) addr() netip.Addr { return addrOf(nd.key) }

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
		if len(n.nodes) == cap(n.nodes) {
			// Double: append grows a large slice by a quarter, copying
			// the whole registry every few registrations.
			n.nodes = slices.Grow(n.nodes, max(len(n.nodes), 64))
		}
		n.nodes = append(n.nodes, netNode{router: -1, hostID: -1, key: k, hostGW: nodeNone})
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
	for _, k := range r.ifaces {
		n.registerIfaceLocked(r, k)
	}
	return r
}

// adoptLocked binds r to this network, listing it on first adoption. A
// router's compiled forwarding table holds this network's node ids, so one
// Router belongs to one Network.
func (n *Network) adoptLocked(r *Router) {
	switch cur := r.net.Load(); cur {
	case nil:
		r.idx = int32(len(n.routers))
		n.routers = append(n.routers, r)
		r.net.Store(n)
	case n:
	default:
		panic(fmt.Sprintf("netsim: router %s is already registered in another Network; a router's compiled table holds one network's node ids", r.Name))
	}
	n.registeredLocked()
}

// registeredLocked outdates what was resolved against the registry before a
// registration: compiled tables (gen), ladders and return memos (epoch).
// The write lock keeps every exchange out, so the epoch moves by two at once.
func (n *Network) registeredLocked() {
	n.gen++
	n.epoch.Add(2)
}

func (n *Network) registerIfaceLocked(r *Router, k uint32) {
	nd := &n.nodes[n.internLocked(k)]
	if nd.hostID >= 0 {
		panic(fmt.Sprintf("netsim: interface %v already owned by a host", addrOf(k)))
	}
	if nd.router >= 0 && nd.router != r.idx {
		panic(fmt.Sprintf("netsim: interface %v already owned by router %s", addrOf(k), n.routers[nd.router].Name))
	}
	nd.router = r.idx
}

// AddIface allocates a new interface on r with address a, registering it in
// the network, and returns its interface index. Topology builders use this
// to grow routers one adjacency at a time.
func (n *Network) AddIface(r *Router, a netip.Addr) int {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	n.adoptLocked(r)
	k := mustA4(a)
	n.registerIfaceLocked(r, k)
	r.ifaces = append(r.ifaces, k)
	return len(r.ifaces) - 1
}

// AttachHost registers a host and the router interface it hangs off.
// Responses the host generates enter the network at gateway.
func (n *Network) AttachHost(h *Host, gateway netip.Addr) *Host {
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	id := n.internLocked(mustA4(h.Addr))
	if n.nodes[id].router >= 0 {
		panic(fmt.Sprintf("netsim: host address %v already owned by a router", h.Addr))
	}
	gw := n.internAddrLocked(gateway) // may grow n.nodes
	nd := &n.nodes[id]
	if nd.hostID < 0 {
		nd.hostID = int32(len(n.hosts))
		n.hosts = append(n.hosts, h)
	}
	n.hosts[nd.hostID], nd.hostGW = h, gw
	n.registeredLocked()
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
	n.registeredLocked()
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
	if id < 0 || n.nodes[id].router < 0 {
		return nil, false
	}
	return n.routers[n.nodes[id].router], true
}

// ProbeCount returns the number of probes injected so far.
func (n *Network) ProbeCount() int {
	return int(n.probeCount.Load())
}

// SetProbeCount sets the probe counter. The counter is a metric: no draw
// reads it, so setting it changes nothing a probe observes.
func (n *Network) SetProbeCount(c int) {
	n.probeCount.Store(int64(c))
}

// prng is a tiny lock-free SplitMix64 stream private to one exchange,
// seeded from the probe itself (exchCtx.stream), so random behaviour is
// reproducible without any cross-exchange coordination.
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
	var out [1]tracer.ProbeResult
	var s [1]int
	n.exchange([][]byte{probe}, out[:], s[:])
	return out[0].Resp, s[0], out[0].OK
}

// dstRef is a packet's destination address resolved against the registry,
// once per packet version: everything the per-hop decisions ask about it.
type dstRef struct {
	node   int32 // the destination's node id, or nodeNone
	host   int32 // its dense host id, or -1
	router int32 // the index of the router owning it, or -1
	source bool  // it is the measurement source address
}

// resolveDst resolves a packet's destination. Responses, nearly all of them
// addressed to the source, cost no map access; a probe costs one.
func (n *Network) resolveDst(a netip.Addr) dstRef {
	d := dstRef{node: nodeNone, host: -1, router: -1, source: a == n.source}
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

// run is the forwarding engine: it injects probe pkt at the source gateway
// and walks it, and whatever it draws, until a response reaches the source.
// Must be called with n.topoMu read-held. The IPv4 header is parsed, and its
// destination resolved against the registry, once per packet version
// (injection, host response, originated ICMP) and threaded through the walk;
// a hop is then a node-table index, an atomic config load and a
// compiled-table index. ctx carries the probe's RNG stream, the arena, the
// virtual clock and the forward ladder.
//
// With ctx.share set, the probe resumes at the deepest ladder hop its TTL
// reaches (under dynamics, the deepest its own clock lets it climb to), and
// a reply to the source replays its originator's return memo (under
// dynamics, the up words of the nodes on its way); the walk keeps them up to
// date as it goes (probe: the packet is the probe, on the ladder; ret: the
// node whose reply is in flight, retAt its step of origination, while every
// hop since was plain).
func (n *Network) run(ctx *exchCtx, pkt []byte) (resp []byte, steps int, ok bool) {
	var hdr packet.IPv4
	payload, err := packet.ParseIPv4Into(pkt, &hdr)
	if err != nil {
		return nil, 0, false
	}
	at, originated := n.srcGW, false
	probe, ret, retAt := ctx.share, nodeNone, 0
	var dst dstRef
	hop := 1
	if ctx.share {
		dst, hop = ctx.lad.place(n, ctx.epoch, &hdr, payload)
	} else {
		dst = n.resolveDst(hdr.Dst)
	}
	// Injection crosses the first link (source → gateway) on the virtual
	// clock; every further traversal is charged where the packet moves
	// (ladder climb, host handoff, loop bottom, replay). Originated ICMP
	// replies are built in place and charge nothing until they move.
	if ctx.dyn != nil {
		if !n.advanceClock(ctx, at, nil, len(pkt)) {
			return nil, 0, false
		}
		if hop > 1 {
			if hop, ok = n.climb(ctx, hop, len(pkt)); !ok {
				return nil, hop - 1, false
			}
		}
	}
	// One patch leaves the checksum hop-1 decrements would (RFC 1624).
	if hop > 1 && packet.PatchTTL(pkt, hdr.TTL-uint8(hop-1)) == nil {
		at, steps, hdr.TTL = ctx.lad.nodes[hop-1], hop-1, hdr.TTL-uint8(hop-1)
		ctx.skipFwd += hop - 1
	}
	for steps < n.maxSteps {
		// Final delivery to the measurement source.
		if at == n.srcNode && dst.source {
			if ret >= 0 {
				n.nodes[ret].ret.Store(ctx.epoch<<24 | uint64(steps-retAt)<<8 | uint64(hdr.TTL))
			}
			return pkt, steps, true
		}
		if at < 0 {
			return nil, steps, false // unregistered or non-IPv4 adjacency
		}
		nd := &n.nodes[at]

		var reply []byte
		if nd.hostID >= 0 {
			// Delivery to a host.
			h := n.hosts[nd.hostID]
			if dst.node != at {
				return nil, steps, false // mis-delivered; drop
			}
			o := origin{h.Addr, hostTTL, ipID(ctx, h.key, 1, &hdr, payload), h.Silent}
			if reply = o.answer(ctx, h.OpenTCPPorts, &hdr, payload, pkt); reply == nil {
				return nil, steps, false
			}
		} else {
			if nd.router < 0 {
				return nil, steps, false // dangling adjacency
			}
			r := n.routers[nd.router]
			cfg := r.config.Load()
			switch {
			case !originated && dst.router == nd.router:
				// Packet addressed to one of the router's own interfaces: the
				// router answers like a host (intermediate hops are pingable).
				o := routerOrigin(ctx, r, cfg, hdr.Dst, &hdr, payload)
				if reply = o.answer(ctx, nil, &hdr, payload, pkt); reply == nil {
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
				next, via, rep, dropped := n.routerForward(ctx, r, cfg, at, &dst, pkt, &hdr, payload, originated)
				if dropped {
					return nil, steps, false
				}
				if rep == nil {
					if ctx.dyn != nil {
						if ctx.share && dst.source && ctx.fwd == fwdPure && ctx.rot < 0 {
							n.markUp(ctx, at, next, !originated)
						}
						if !n.advanceClock(ctx, next, via, len(pkt)) {
							return nil, steps, false
						}
					}
					if probe {
						probe = ctx.lad.extend(steps, next, ctx.fwd, ctx.rot)
					}
					if ctx.fwd != fwdPure {
						ret = nodeNone
					}
					at, originated = next, false
					steps++
					continue
				}
				reply = rep
			}
		}
		// The host or router originated a packet of its own: a new packet
		// version. A reply goes to the triggering packet's source: to the
		// measurement source, it takes the path every reply from here takes.
		toSrc := ctx.share && hdr.Src == n.source
		if ret = nodeNone; toSrc && ctx.dyn == nil {
			if s, ok := n.replay(ctx, at, reply, steps); ok {
				return reply, s, true
			}
			ret, retAt = at, steps
		}
		pkt, originated, probe = reply, true, false
		if payload, err = packet.ParseIPv4Into(pkt, &hdr); err != nil {
			return nil, steps, false
		}
		dst = n.resolveDst(hdr.Dst)
		// A router's reply leaves from the node that originated it; a host's
		// first crosses the link to its gateway, and arrives there in transit.
		if nd.hostID >= 0 {
			if at, originated = nd.hostGW, false; ctx.dyn != nil && !n.advanceClock(ctx, at, nil, len(pkt)) {
				return nil, steps, false
			}
		}
		steps++
		if toSrc && ctx.dyn != nil {
			if resp, done := n.replayUp(ctx, &at, &steps, &originated, pkt, &hdr); done {
				return resp, steps, resp != nil
			}
		}
	}
	return nil, steps, false
}

// climb carries a probe the ladder places at hop h up from the source
// gateway on its own virtual clock, as the plain walk would: at each hop
// below h it re-checks the probe's time-dependent draws — a flap at the
// node and, where the node balanced, the rotation the ladder recorded — and
// charges the link to the next node. It returns the hop the walk resumes
// at: h, or the first whose draw differs, which the plain walk then takes
// from its arrival there. ok is false when a link on the way is browned
// out: the probe is lost, leaving the hop returned.
func (n *Network) climb(ctx *exchCtx, h, pktLen int) (hop int, ok bool) {
	dy, l := ctx.dyn, &ctx.lad
	for j := 0; j < h-1; j++ {
		s := n.link(ctx, l.nodes[j])
		if dy.flapActive(s, ctx.clk.now) {
			ctx.handed[handLadderFlap]++
			return j + 1, true
		}
		if rot := l.rots[j]; rot >= 0 && dy.weightRot(s, ctx.clk.now) != int(rot) {
			ctx.handed[handLadderRot]++
			return j + 1, true
		}
		if !n.advanceClock(ctx, l.nodes[j+1], nil, pktLen) {
			ctx.handed[handLadderBrown]++
			return j + 1, false
		}
	}
	return h, true
}

// epochMask keeps the epoch bits a return memo holds.
const epochMask = 1<<40 - 1

// replay delivers a reply node originated at step steps from the node's
// return memo, as the plain walk it records would: the TTL patched to its
// arrival value (one patch, the checksum of every decrement) and the steps
// added. It reports false when the memo is from another epoch, or unset.
// Without dynamics only; replayUp is its counterpart under dynamics.
func (n *Network) replay(ctx *exchCtx, node int32, pkt []byte, steps int) (int, bool) {
	w := n.nodes[node].ret.Load()
	hops := int(w>>8) & 0xffff
	if w>>24 != ctx.epoch&epochMask || hops == 0 || steps+hops >= n.maxSteps || packet.PatchTTL(pkt, uint8(w)) != nil {
		return 0, false
	}
	ctx.skipRet += hops - 1 // all but the visit that originated it
	return steps + hops, true
}

// upTransit marks an up word recorded by a reply in transit. A router
// treats its own replies more leniently than transit traffic (no TTL
// check, fault or flap applies to them), so only such a word serves a reply
// in transit; either serves one leaving the node that originated it.
const upTransit = 1 << 31

// markUp records, in node at's up word, that a reply to the source moves
// from there to next at this epoch, in transit or not (see linkSlot). A word
// is written only when it changes, and never to demote a transit word.
func (n *Network) markUp(ctx *exchCtx, at, next int32, transit bool) {
	w := uint64(uint32(ctx.epoch))<<32 | uint64(uint32(next))
	if transit {
		w |= upTransit
	}
	up := &ctx.dyn.links[at].up
	if cur := up.Load(); cur != w && (transit || cur>>32 != w>>32) {
		up.Store(w)
	}
}

// replayUp carries a reply to the source along the up words of the nodes it
// reaches, starting from the walk's state (at, steps, originated) and
// keeping it as the plain walk would: every move charges the link on the
// reply's clock, and a router the reply transits must see it arrive with a
// TTL of 2 or more and have no flap active. done reports the reply delivered
// (resp is pkt) or lost on a browned-out link (resp is nil), with *steps the
// plain walk's. Otherwise the walk takes over where the replay stopped — at
// a node whose up word is from another epoch or unset, a flap or a low TTL —
// with the TTL patched to its arrival there.
func (n *Network) replayUp(ctx *exchCtx, at *int32, steps *int, originated *bool, pkt []byte, hdr *packet.IPv4) (resp []byte, done bool) {
	dy, epoch := ctx.dyn, uint32(ctx.epoch)
	cur, s, transit, ttl := *at, *steps, !*originated, hdr.TTL
	for {
		if transit && cur == n.srcNode {
			resp, done = pkt, true
			break
		}
		if cur < 0 || s+1 >= n.maxSteps {
			break
		}
		link := n.link(ctx, cur)
		w := link.up.Load()
		if uint32(w>>32) != epoch || transit && w&upTransit == 0 {
			break
		}
		if transit {
			if ttl < 2 {
				break
			}
			if dy.flapActive(link, ctx.clk.now) {
				ctx.handed[handMemoFlap]++
				break
			}
		}
		next := int32(uint32(w) &^ upTransit)
		if !n.advanceClock(ctx, next, nil, len(pkt)) {
			ctx.handed[handMemoBrown]++
			done = true
			break
		}
		if transit {
			ttl--
		}
		cur, s, transit = next, s+1, true
	}
	ctx.skipRet += s - *steps
	*at, *steps, *originated = cur, s, !transit
	if ttl != hdr.TTL && packet.PatchTTL(pkt, ttl) == nil {
		hdr.TTL = ttl
	}
	return resp, done
}

// routerTTLCheck applies TTL processing for a transit packet arriving at
// router r on interface nd. done=true means the packet will not be
// forwarded as-is: either reply is the ICMP error the router originates, or
// nil for a silent drop.
func routerTTLCheck(ctx *exchCtx, r *Router, cfg *routerConfig, nd *netNode, pkt []byte, hdr *packet.IPv4, payload []byte) (done bool, reply []byte) {
	switch {
	case hdr.TTL == 1 && cfg.faults.ZeroTTLForward:
		// The Fig. 4 misbehaviour: forward with TTL 0.
		if err := packet.PatchTTL(pkt, 0); err != nil {
			return true, nil
		}
		hdr.TTL = 0
		return false, nil
	case hdr.TTL <= 1:
		// Expired here, or arrived already dead (zero-TTL forwarded
		// upstream), in which case the quote carries TTL 0.
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
//
// A move also leaves its fwdKind in ctx.fwd (under ctx.share): pure for a
// single next hop or a per-destination pick, flow for a per-flow pick,
// impure when it drew, redirected (ForwardOverride, a flip schedule's
// router), rewrote (NAT) or forwarded a zero TTL, or leads to no node.
func (n *Network) routerForward(ctx *exchCtx, r *Router, cfg *routerConfig, at int32, dst *dstRef, pkt []byte, hdr *packet.IPv4, payload []byte, originated bool) (next int32, via *netip.Addr, reply []byte, dropped bool) {
	ctx.fwd, ctx.rot = fwdImpure, -1
	draws := ctx.draws
	nd := &n.nodes[at]
	isTransitProbe := !originated
	if cfg.faults.Unreachable && isTransitProbe {
		return nodeNone, nil, originateUnreachable(ctx, r, cfg, nd.addr(), pkt, hdr, payload), false
	}
	// Scheduled dynamics at this router, evaluated functionally from the
	// arrival link and the virtual arrival time (never from router state,
	// which concurrent probes at different virtual times share).
	var link *linkSlot
	if ctx.dyn != nil {
		link = n.link(ctx, at)
		if isTransitProbe && ctx.dyn.flapActive(link, ctx.clk.now) {
			// Route flap: transit routes transiently withdrawn.
			return nodeNone, nil, originateUnreachable(ctx, r, cfg, nd.addr(), pkt, hdr, payload), false
		}
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
	if cfg.faults.DropProbability > 0 && !originated && ctx.stream().Float64() < cfg.faults.DropProbability {
		return nodeNone, nil, nil, true
	}
	// A single next hop is in the compiled table; only an entry to balance
	// (or the rare hop below that needs its address) reads the entry.
	next, i, kind := t.next[e], 0, fwdPure
	if next < nodeNone {
		te := &t.entries[e]
		rot := 0
		if link != nil {
			rot = ctx.dyn.weightRot(link, ctx.clk.now)
		}
		ctx.rot = int8(rot)
		policy, opts := t.balance(te)
		var ok bool
		if i, ok = selectHop(policy, opts, t.width(te), hdr, payload, ctx, rot); !ok {
			return nodeNone, nil, nil, true
		}
		next = t.hops[-2-next+int32(i)]
		if policy != PerDestination {
			kind = fwdFlow // or impure, below, if per-packet spreading drew
		}
	}
	// A mid-trace routing change, resolved from the probe's own position
	// like a flap from its virtual time. Responses, addressed to the
	// source, are never redirected.
	if fl := cfg.faults.Flip; fl != nil && isTransitProbe && !dst.source {
		if t.via(&t.entries[e], i) == fl.From && fl.toggled(position(ctx.seed, hdr, payload)) {
			return n.nodeOf(fl.To), &fl.To, nil, false
		}
		kind = fwdImpure
	}
	// NAT egress rewriting (Fig. 5): packets whose source lies inside the
	// NAT prefix leaving for an outside adjacency get the public address.
	// The next hop's address is built into the exchange context, where via
	// can point.
	nat := &cfg.nat
	if next < 0 || nat.Enabled() {
		ctx.via = t.via(&t.entries[e], i)
		via = &ctx.via
		if nat.Enabled() && hdr.Src.Is4() && nat.Inside.Contains(hdr.Src) && !nat.Inside.Contains(*via) {
			if err := packet.PatchSrc(pkt, nat.Public); err == nil {
				hdr.Src = nat.Public
			}
		}
	}
	if ctx.share {
		if ctx.draws != draws || nat.Enabled() || next < 0 || !originated && hdr.TTL == 0 {
			kind = fwdImpure
		}
		ctx.fwd = kind
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
	o := routerOrigin(ctx, r, cfg, at, hdr, payload)
	return o.icmp(ctx, hdr.Src, &m)
}

// originateUnreachable builds the serialized ICMP Destination Unreachable
// response for pkt, which router r refuses to forward from interface at:
// network unreachable when it has no route, host unreachable (or the
// configured code) under the Unreachable fault.
func originateUnreachable(ctx *exchCtx, r *Router, cfg *routerConfig, at netip.Addr, pkt []byte, hdr *packet.IPv4, payload []byte) []byte {
	if isICMPError(hdr, payload) {
		return nil
	}
	code := cfg.faults.UnreachableCode
	if code == 0 {
		code = packet.CodeNetUnreachable // no route: network unreachable
		if cfg.faults.Unreachable {
			code = packet.CodeHostUnreachable
		}
	}
	m := packet.ICMP{
		Type:    packet.ICMPTypeDestUnreachable,
		Code:    code,
		Payload: quoteOf(pkt, hdr, payload),
	}
	o := routerOrigin(ctx, r, cfg, at, hdr, payload)
	return o.icmp(ctx, hdr.Src, &m)
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
