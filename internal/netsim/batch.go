package netsim

import (
	"sync"
	"time"

	"repro/internal/keyhash"
)

// ExchangeResult is the outcome of one probe/response exchange within an
// ExchangeBatch call. Resp is written with append-truncate into whatever
// storage the caller left in the field, so a caller that reuses one result
// slice across batches pays for each response buffer exactly once.
type ExchangeResult struct {
	// Resp is the serialized response packet (empty when OK is false).
	// The buffer is owned by the caller and recycled in place.
	Resp []byte
	// Steps is the number of node traversals, the latency proxy Exchange
	// reports.
	Steps int
	// RTT is the probe's virtual round-trip time when the network has a
	// dynamics layer installed (SetDynamics); zero otherwise, and zero
	// when OK is false.
	RTT time.Duration
	// OK is false when no response made it back to the source (a star).
	OK bool
}

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
// exchange is carved from, and the virtual-clock layer. One is drawn from
// ctxPool per batch and recycled probe to probe.
type exchCtx struct {
	// rng is the probe's stream, seeded from (key, probe bytes) by stream
	// on the exchange's first draw; seeded says whether it has been.
	rng    prng
	seeded bool
	// key is the network seed folded with the virtual round, fixed for the
	// batch; probe is the bytes the current exchange was handed.
	key   uint64
	probe []byte
	arena arena
	// dyn is the dynamics layer, nil when disabled; clk is this exchange's
	// clock on it, reset per probe — each exchange keeps its own time (see
	// vclock.go on why batches are not interleaved by virtual time).
	dyn *dynamics
	clk vclock
}

// stream returns the exchange's random stream, a pure function of (network
// seed, virtual round, probe bytes). It is seeded lazily: most exchanges
// draw nothing (no per-packet balancer, no drop fault on their path), and
// those never hash their probe.
func (c *exchCtx) stream() *prng {
	if !c.seeded {
		c.rng, c.seeded = prng{state: keyhash.Mix64(keyhash.FNV1a(c.key, c.probe))}, true
	}
	return &c.rng
}

var ctxPool = sync.Pool{New: func() any { return new(exchCtx) }}

// ExchangeBatch performs len(probes) probe/response exchanges as one unit of
// work, writing the i-th outcome into out[i]; out must be at least as long
// as probes. It is the one entry into the forwarding walk — Exchange is a
// batch of one — and equal to exchanging the probes one at a time in any
// order: every draw is keyed by the probe itself (see the package comment's
// determinism contract), so nothing depends on which probe went first.
//
// The topology read lock is held across the whole batch, and probe copies
// plus originated responses are carved from a pooled arena instead of the
// heap. Per-visit config and table loads mean another goroutine's SetFaults
// or route mutation is seen by the very next visit. See the package
// comment's exchange contract for the ownership rules.
//
// ExchangeBatch is safe for concurrent use.
func (n *Network) ExchangeBatch(probes [][]byte, out []ExchangeResult) {
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
	ctx.key = n.seed ^ keyhash.Mix64(uint64(vround))

	for i, probe := range probes {
		ctx.probe, ctx.seeded = probe, false
		if ctx.dyn != nil {
			ctx.clk.reset(ctx.dyn.probeStart(vround, probe))
		}
		// Copy: forwarding mutates TTL/checksum/src in place.
		resp, steps, ok := n.run(ctx, ctx.arena.copyOf(probe), n.srcGW, false)
		out[i].Steps, out[i].OK = steps, ok
		out[i].RTT = 0
		if ok && ctx.dyn != nil {
			out[i].RTT = ctx.clk.elapsed()
		}
		if ok {
			out[i].Resp = append(out[i].Resp[:0], resp...)
		} else if out[i].Resp != nil {
			out[i].Resp = out[i].Resp[:0]
		}
		// Everything this exchange carved from the arena is dead now
		// that the response is copied out; reuse the space.
		ctx.arena.rewind()
	}
	ctx.probe = nil
}
