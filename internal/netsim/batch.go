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
// its helpers: the probe's private RNG stream and, on the batch path, the
// arena. The zero value (heap-allocated responses) is the sequential
// Exchange configuration.
type exchCtx struct {
	rng prng
	// arena serves response marshal buffers; nil falls back to the heap.
	arena *arena
	// dyn and clk are the virtual-clock layer for this exchange; both nil
	// when dynamics are disabled. The clock is reset per probe — each
	// exchange runs its own event loop (see vclock.go on why batches are
	// not interleaved by virtual time).
	dyn *dynamics
	clk *vclock
}

// respBuf returns an arena buffer for a response packet of the given size,
// or nil to let the packet marshaller allocate.
func (c *exchCtx) respBuf(n int) []byte {
	if c.arena == nil {
		return nil
	}
	return c.arena.take(n)
}

// batchState is the pooled per-exchange scratch: the arena and the context
// of a batch, and the virtual clock of either path, recycled through
// batchPool.
type batchState struct {
	arena arena
	clk   vclock
	ctx   exchCtx
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// ExchangeBatch performs len(probes) probe/response exchanges as one unit of
// work, writing the i-th outcome into out[i]; out must be at least as long
// as probes. It is the amortized equivalent of calling Exchange once per
// probe — and deterministically equal to it: the batch reserves one
// contiguous block of the network's probe counter, so probe i derives
// exactly the RNG stream (and OnSend hook count) it would have drawn as the
// corresponding sequential Exchange.
//
// The topology read lock is held across the whole batch, and probe copies
// plus originated responses are carved from a pooled arena instead of the
// heap. Every probe walks the one path Exchange walks — per-visit config and
// table loads — so a hook's, or another goroutine's, SetFaults or
// RewriteRoutes is seen by the very next visit. See the package comment's
// batch contract for the full determinism and ownership rules.
//
// ExchangeBatch is safe for concurrent use alongside Exchange and other
// batches.
func (n *Network) ExchangeBatch(probes [][]byte, out []ExchangeResult) {
	if len(out) < len(probes) {
		panic("netsim: ExchangeBatch result slice shorter than probe slice")
	}
	if len(probes) == 0 {
		return
	}
	nn := int64(len(probes))
	base := n.probeCount.Add(nn) - nn

	n.topoMu.RLock()
	defer n.topoMu.RUnlock()
	if !n.haveEntry {
		panic("netsim: SetSource not called")
	}
	hooks := n.onSend

	st := batchPool.Get().(*batchState)
	defer batchPool.Put(st)
	st.arena.rewind()
	st.ctx = exchCtx{arena: &st.arena}
	dy := n.dyn.Load()
	var vround int64
	if dy != nil {
		vround = n.vround.Load()
		st.ctx.dyn, st.ctx.clk = dy, &st.clk
	}

	for i, probe := range probes {
		count := base + int64(i) + 1
		// Hooks run under the topology read lock here (sequential
		// Exchange releases it first): they may mutate router config
		// and forwarding tables, but must not register topology.
		for _, f := range hooks {
			f(int(count), probe)
		}
		st.ctx.rng = prng{state: keyhash.Mix64(n.seed ^ keyhash.Mix64(uint64(count)))}
		if dy != nil {
			st.clk.reset(dy.probeStart(vround, probe))
		}
		pkt := st.arena.copyOf(probe)
		resp, steps, ok := n.run(&st.ctx, pkt, n.srcGW, false)
		out[i].Steps, out[i].OK = steps, ok
		out[i].RTT = 0
		if ok && dy != nil {
			out[i].RTT = st.clk.elapsed()
		}
		if ok {
			out[i].Resp = append(out[i].Resp[:0], resp...)
		} else if out[i].Resp != nil {
			out[i].Resp = out[i].Resp[:0]
		}
		// Everything this exchange carved from the arena is dead now
		// that the response is copied out; reuse the space.
		st.arena.rewind()
	}
}
