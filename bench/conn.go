package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tracer/live"
)

// lossModel is the deterministic pathology the bench conn injects on top of
// the simulator's answers. Every draw is keyed on the probe's bytes, a salt
// derived from -seed, and — for loss — which transmission of those bytes this
// is, never on the send ordinal: with more than one worker the ordinal
// depends on how the workers interleave, the bytes do not.
type lossModel struct {
	salt     uint64
	loss     float64 // share of responses dropped, per transmission
	dup      float64 // share of delivered responses delivered twice
	reorder  bool    // deliver newest first
	attempts int     // transmissions the mux makes per probe (1 + Retries)
}

func (m lossModel) armed() bool { return m.loss > 0 || m.dup > 0 || m.reorder }

// hashProbe is FNV-1a over the probe bytes, finished with a SplitMix64 round
// so nearby probes (one TTL apart) draw independently.
func hashProbe(probe []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range probe {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return mix64(h)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// dropped reports whether the response to the attempt-th transmission
// (1-based) of the probe hashing to h is lost.
func (m lossModel) dropped(h uint64, attempt int) bool {
	return m.loss > 0 && unit(mix64(h^m.salt^uint64(attempt)<<56)) < m.loss
}

func (m lossModel) duplicated(h uint64) bool {
	return m.dup > 0 && unit(mix64(h^m.salt^0xd0b1e)) < m.dup
}

// benchConn is the bench-owned live.PacketConn: every written probe is
// answered at once by respond (a second, identical simulator), the loss
// model decides what reaches the read side, and ReadBatch reports a timeout
// the moment nothing is deliverable, which advances the mux's deadline wheel
// without sleeping. Unlike live.SimConn it keeps no history of sent probes
// and recycles its response buffers, so memory stays bounded by what is in
// flight however many million probes a run sends.
type benchConn struct {
	respond func(probe []byte) ([]byte, bool)
	model   lossModel
	rec     *recorder // nil: untraced
	lane    *lane

	mu     sync.Mutex
	queue  [][]byte
	head   int
	free   [][]byte
	closed bool
	// resent maps the hash of a probe whose response was dropped to how
	// many transmissions of it have been seen; the entry is removed when
	// the mux's last transmission arrives, so the map holds only probes
	// awaiting a retransmit.
	resent map[uint64]int

	writes, reads, written, read, timeoutTurns, lost, duplicated atomic.Int64
}

func newBenchConn(respond func([]byte) ([]byte, bool), model lossModel, rec *recorder) *benchConn {
	c := &benchConn{respond: respond, model: model, rec: rec, resent: map[uint64]int{}}
	if rec != nil {
		c.lane = rec.newLane()
	}
	return c
}

var errConnClosed = errors.New("bench conn: closed")

func (c *benchConn) WriteBatch(dgs []live.Datagram) (int, error) {
	on := c.rec.enabled()
	var id, rid int64
	var start, rstart time.Time
	if on {
		id, start = c.rec.begin()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errConnClosed
	}
	if on {
		rid, rstart = c.rec.begin()
	}
	for i := range dgs {
		resp, ok := c.respond(dgs[i].Buf)
		if !ok {
			continue
		}
		copies := 1
		if c.model.armed() {
			h := hashProbe(dgs[i].Buf)
			attempt := c.resent[h] + 1
			if c.model.dropped(h, attempt) {
				c.lost.Add(1)
				if attempt < c.model.attempts {
					c.resent[h] = attempt
				} else {
					delete(c.resent, h)
				}
				continue
			}
			delete(c.resent, h)
			if c.model.duplicated(h) {
				copies = 2
				c.duplicated.Add(1)
			}
		}
		for ; copies > 0; copies-- {
			c.queue = append(c.queue, append(c.buffer(), resp...))
		}
	}
	if on {
		// The respond span covers the loop above: the simulator's answers
		// plus the loss draws and the queueing around them.
		c.rec.end(c.lane, spanRespond, -1, rid, id, rstart)
	}
	c.mu.Unlock()
	c.writes.Add(1)
	c.written.Add(int64(len(dgs)))
	if on {
		c.rec.end(c.lane, spanConnWrite, -1, id, c.rec.round.Load(), start)
	}
	return len(dgs), nil
}

// buffer returns a recycled response buffer, emptied. Caller holds mu.
func (c *benchConn) buffer() []byte {
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free = c.free[:n-1]
		return b[:0]
	}
	return nil
}

func (c *benchConn) ReadBatch(dgs []live.Datagram) (int, error) {
	on := c.rec.enabled()
	var id int64
	var start time.Time
	if on {
		id, start = c.rec.begin()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, errConnClosed
	}
	n := 0
	for n < len(dgs) && c.head < len(c.queue) {
		var pkt []byte
		if c.model.reorder {
			last := len(c.queue) - 1
			pkt, c.queue = c.queue[last], c.queue[:last]
		} else {
			pkt = c.queue[c.head]
			c.head++
		}
		dgs[n].N = copy(dgs[n].Buf, pkt)
		c.free = append(c.free, pkt)
		n++
	}
	if c.head >= len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	c.mu.Unlock()
	c.reads.Add(1)
	c.read.Add(int64(n))
	if on {
		c.rec.end(c.lane, spanConnRead, -1, id, c.rec.round.Load(), start)
	}
	if n == 0 {
		c.timeoutTurns.Add(1)
		return 0, live.ErrTimeout
	}
	return n, nil
}

func (c *benchConn) SetReadDeadline(time.Time) error { return nil }

func (c *benchConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}
