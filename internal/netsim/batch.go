package netsim

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keyhash"
	"repro/internal/packet"
	"repro/internal/tracer"
)

// arena is the bump allocator serving one batch's transient packet buffers:
// the mutable probe copy and every ICMP error, echo reply, or TCP reset a
// router or host originates while that probe is in flight. take never moves
// previously returned buffers (overflow opens a fresh chunk, and the old one
// stays alive through the slices already handed out), so packets built early
// in an exchange stay valid while later ones are carved.
type arena struct {
	cur []byte
	off int
}

// arenaChunk comfortably holds every buffer one exchange needs (a probe copy
// plus a handful of ≤ ~60-byte response packets).
const arenaChunk = 4 << 10

func (a *arena) take(n int) []byte {
	if a.off+n > len(a.cur) {
		size := 2 * len(a.cur)
		if size < arenaChunk {
			size = arenaChunk
		}
		if size < n {
			size = n
		}
		a.cur = make([]byte, size)
		a.off = 0
	}
	b := a.cur[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

func (a *arena) copyOf(p []byte) []byte {
	b := a.take(len(p))
	copy(b, p)
	return b
}

// rewind reclaims the current chunk. Only legal once nothing reachable
// aliases it — ExchangeBatch rewinds after copying each exchange's final
// response out into the caller's buffer.
func (a *arena) rewind() { a.off = 0 }

// exchCtx carries the per-exchange state the forwarding walk threads through
// its helpers: the probe's private RNG stream, the arena every packet of the
// exchange is carved from, the virtual-clock layer, and the forward ladder.
// One is drawn from ctxPool per batch and recycled probe to probe.
type exchCtx struct {
	// rng is the probe's stream, seeded from (key, probe bytes) by stream
	// on the exchange's first draw; seeded says whether it has been. draws
	// counts the draws: a forwarding decision that drew is not pure.
	rng    prng
	seeded bool
	draws  int
	// seed is the network's, key it folded with the virtual round (fixed
	// for the batch), probe the bytes the current exchange was handed.
	seed, key uint64
	probe     []byte
	arena     arena
	// dyn is the dynamics layer, nil when disabled; clk is this exchange's
	// clock on it, reset per probe — each exchange keeps its own time (see
	// vclock.go on why batches are not interleaved by virtual time).
	// scratch holds the draws of a link into an unregistered adjacency,
	// which has no slot of its own.
	dyn     *dynamics
	clk     vclock
	scratch linkSlot
	// via holds the address of the next hop routerForward chose, when the
	// walk needs it (NAT's inside test, the link into an unregistered
	// adjacency): the stored entry keeps it as four bytes.
	via netip.Addr

	// share says the exchange may resume on the ladder and replay return
	// memos: epoch, read as the exchange starts, is even. fwd classifies
	// routerForward's last decision for both, and rot is the rotation it
	// balanced under (-1: it did not balance).
	share bool
	epoch uint64
	fwd   fwdKind
	rot   int8
	lad   ladder
	// skipFwd and skipRet count the steps this batch's shortcuts skipped,
	// and handed, by cause, the walks they gave back to the plain walk (or
	// lost), all for the network's tally.
	skipFwd, skipRet int
	handed           [numHandovers]int
}

// stream returns the exchange's random stream, a pure function of (network
// seed, virtual round, probe bytes). It is seeded lazily: most exchanges
// draw nothing (no per-packet balancer, no drop fault on their path), and
// those never hash their probe.
func (c *exchCtx) stream() *prng {
	c.draws++
	if !c.seeded {
		c.rng, c.seeded = prng{state: keyhash.Mix64(keyhash.FNV1a(c.key, c.probe))}, true
	}
	return &c.rng
}

var ctxPool = sync.Pool{New: func() any { return new(exchCtx) }}

// fwdKind classifies a forwarding decision by what it depends on besides the
// router's configuration and table, which the epoch covers.
type fwdKind uint8

const (
	// fwdImpure: the packet's position, the stream, a rewrite, a zero TTL.
	fwdImpure fwdKind = iota
	// fwdFlow: the flow key, so it holds for one flow toward a destination.
	fwdFlow
	// fwdPure: the destination alone.
	fwdPure
)

// maxLadder bounds a ladder's depth; a probe that goes deeper walks on from
// the deepest recorded hop.
const maxLadder = 64

// ladder is the forward path the probes of a batch toward one destination
// share — the Paris premise: one flow identifier, one path. nodes[k] is the
// node a probe reaches at hop k+1 (nodes[0] is the source gateway), each
// reached from the one before through a pure decision made on a TTL of 2 or
// more. Every hop serves the flow that started the ladder (owner: its first
// four transport octets); other flows use nodes[:shared], which ends at the
// first per-flow balancer. A ladder is keyed by its network, epoch and key,
// and starts afresh when a probe differs in any of them. Under dynamics,
// rots[k] is the rotation nodes[k] balanced under on the way to nodes[k+1]
// (-1: a single next hop), which a probe at another virtual time must meet
// again to climb past it (Network.climb).
type ladder struct {
	net       *Network
	epoch     uint64
	key       ladderKey
	owner     uint64
	owned     bool   // the probe being walked is the owner's
	dst       dstRef // the destination, resolved once per ladder
	n, shared int
	nodes     [maxLadder]int32
	rots      [maxLadder]int8
}

// ladderKey is the header a flow key hashes, less the transport octets
// (flow.FromParsed).
type ladderKey struct {
	src, dst   uint32
	tos, proto uint8
}

// transportKey packs a payload's first four octets and how many there are.
func transportKey(payload []byte) uint64 {
	k := uint64(min(len(payload), 4)) << 32
	for i, b := range payload[:min(len(payload), 4)] {
		k |= uint64(b) << (8 * i)
	}
	return k
}

// place keys the ladder to a probe and returns the probe's resolved
// destination and the deepest hop its TTL reaches on the ladder, where its
// walk resumes.
func (l *ladder) place(n *Network, epoch uint64, hdr *packet.IPv4, payload []byte) (dstRef, int) {
	src, _ := a4(hdr.Src)
	dst, _ := a4(hdr.Dst)
	k, flow := ladderKey{src, dst, hdr.TOS, hdr.Protocol}, transportKey(payload)
	if l.net != n || l.epoch != epoch || l.key != k {
		l.net, l.epoch, l.key, l.owner = n, epoch, k, flow
		l.dst = n.resolveDst(hdr.Dst)
		l.nodes[0], l.n, l.shared = n.srcGW, 1, 1
	}
	l.owned = flow == l.owner
	usable := l.shared
	if l.owned {
		usable = l.n
	}
	return l.dst, min(int(hdr.TTL), usable)
}

// extend records next as the node after hop steps+1 when the probe walked
// there from the ladder's frontier through a decision that holds for it,
// made under rotation rot, and reports whether the probe is still on the
// ladder.
func (l *ladder) extend(steps int, next int32, kind fwdKind, rot int8) bool {
	switch {
	case steps+1 != l.n || l.n == maxLadder || kind == fwdImpure:
		return false
	case !l.owned && (kind == fwdFlow || l.shared < l.n):
		return false // a hop the owner's flow may reach differently
	case kind == fwdPure && l.shared == l.n:
		l.shared++
	}
	l.rots[l.n-1] = rot
	l.nodes[l.n] = next
	l.n++
	return true
}

// The causes for which a shortcut under dynamics hands its walk back at a
// skipped hop, or loses the packet there: the ladder's climb meets a flap,
// another rotation or a brownout; a reply's replay meets a flap or a
// brownout.
const (
	handLadderFlap = iota
	handLadderRot
	handLadderBrown
	handMemoFlap
	handMemoBrown
	numHandovers
)

// walkTally counts the steps exchanges reported and those the shortcuts
// skipped: forward on the ladder, back from return memos; and the walks the
// shortcuts handed back under dynamics, by cause.
type walkTally struct {
	steps, fwd, ret atomic.Int64
	handed          [numHandovers]atomic.Int64
}

// perHop is the synthetic one-way per-node latency a response's RTT is
// derived from when the network has no dynamics layer: RTT = Steps × perHop.
const perHop = 500 * time.Microsecond

// ExchangeBatch performs len(probes) probe/response exchanges as one unit of
// work, writing the i-th outcome into out[i] through its writers (Answer or
// Star); out must be at least as long as probes. A response's RTT is its
// virtual round-trip time when the network has a dynamics layer installed
// (SetDynamics) and that time is positive, and Steps × 500 µs otherwise. It
// is the one entry into the forwarding walk — Exchange is a batch of one —
// and equal to exchanging the probes one at a time in any order: every draw
// is keyed by the probe itself (see the package comment's determinism
// contract), so nothing depends on which probe went first.
//
// The topology read lock is held across the whole batch, and probe copies
// plus originated responses are carved from a pooled arena instead of the
// heap. Another goroutine's SetFaults, route mutation or SetDynamics is seen
// by every exchange that starts after the mutation returns. See the package
// comment's exchange contract for the ownership rules and for when a walk
// is resumed or replayed.
//
// ExchangeBatch is safe for concurrent use.
func (n *Network) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	n.exchange(probes, out, nil)
}

// exchange is ExchangeBatch that also reports each probe's node traversals
// in steps[i] when steps is not nil.
func (n *Network) exchange(probes [][]byte, out []tracer.ProbeResult, steps []int) {
	if len(out) < len(probes) {
		panic("netsim: ExchangeBatch result slice shorter than probe slice")
	}
	if len(probes) == 0 {
		return
	}
	n.probeCount.Add(int64(len(probes)))

	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	if !n.haveEntry {
		panic("netsim: SetSource not called")
	}

	ctx := ctxPool.Get().(*exchCtx)
	defer ctxPool.Put(ctx)
	ctx.arena.rewind()
	// Loaded under the lock: the installed layer's link table covers every
	// node registered so far.
	ctx.dyn = n.dyn.Load()
	vround := n.vround.Load()
	ctx.seed, ctx.key = n.seed, n.seed^keyhash.Mix64(uint64(vround))
	// A ladder lives for one batch: the probes of a trace window.
	ctx.skipFwd, ctx.skipRet, ctx.handed, ctx.lad.net = 0, 0, [numHandovers]int{}, nil

	walked := 0
	for i, probe := range probes {
		ctx.probe, ctx.seeded = probe, false
		if ctx.dyn != nil {
			ctx.clk.reset(ctx.dyn.probeStart(vround, probe))
		}
		ctx.epoch = n.epoch.Load()
		ctx.share = ctx.epoch&1 == 0 && !n.plain
		// Copy: forwarding mutates TTL/checksum/src in place.
		resp, s, ok := n.run(ctx, ctx.arena.copyOf(probe))
		walked += s
		if steps != nil {
			steps[i] = s
		}
		if ok {
			rtt := time.Duration(s) * perHop
			if ctx.dyn != nil && ctx.clk.elapsed() > 0 {
				rtt = ctx.clk.elapsed()
			}
			out[i].Answer(resp, rtt)
		} else {
			out[i].Star()
		}
		// Everything this exchange carved from the arena is dead now
		// that the response is copied out; reuse the space.
		ctx.arena.rewind()
	}
	ctx.probe = nil
	if t := n.tally; t != nil {
		t.steps.Add(int64(walked))
		t.fwd.Add(int64(ctx.skipFwd))
		t.ret.Add(int64(ctx.skipRet))
		for c, k := range ctx.handed {
			t.handed[c].Add(int64(k))
		}
	}
}
