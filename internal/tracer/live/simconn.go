package live

import (
	"errors"
	"sync"
	"time"
)

// SimConn is the in-process PacketConn the hermetic tests and the replay
// corpus generator drive the live transport with: every sent probe is
// answered by the responder (typically a second, identical netsim.Network
// replaying exactly the responses the simulator transport would have
// produced), and the schedule injects the pathologies a real network adds
// on top — reordering, duplication, loss, and late arrival. ReadBatch
// returns ErrTimeout the moment nothing is deliverable, which
// fast-forwards the transport's deadline wheel without any real sleeping.
// All methods are safe for concurrent use, so the shared mux's writer
// workers and its reader can hit one SimConn at once under -race.
//
// It lives in the non-test build so `go generate`-run tools can capture
// hermetic campaigns through the real mux (see internal/tracer/replay/gen);
// production binaries never construct one.
type SimConn struct {
	mu sync.Mutex

	// Respond produces the response for one sent probe; ok=false means the
	// network stays silent (a star at the source of truth).
	Respond func(probe []byte) ([]byte, bool)
	Sched   SimSchedule

	seq    int // send ordinal, counted across the conn's lifetime
	queue  [][]byte
	held   []heldResp
	closed bool

	// sends records every probe put on the "wire", in order, for
	// attempt-count assertions.
	sends [][]byte

	// WriteErr, when set, can fail a WriteBatch: it receives the call
	// ordinal (counted per WriteBatch invocation) and the datagram count,
	// and returns how many datagrams actually made it out plus the error
	// for the rest. Returning (len, nil) leaves the call untouched.
	WriteErr   func(call, n int) (int, error)
	writeCalls int

	// ReadErr, when set, can fail a ReadBatch with a fatal socket error:
	// it receives the call ordinal (counted per ReadBatch invocation) and
	// returns nil to leave the call untouched. The mux treats any
	// non-ErrTimeout read failure as a dead socket and reopens.
	ReadErr   func(call int) error
	readCalls int

	// KDrops, when nonzero, is reported by KernelDrops — the fake's
	// SO_RXQ_OVFL seam for receive-pressure tests.
	KDrops uint64
}

// SimSchedule scripts the fault injection, keyed by send ordinal (the
// running index of WriteBatch datagrams, retries included) and the probe
// bytes themselves.
type SimSchedule struct {
	// Drop discards the response to this send (the probe still reaches the
	// responder — the exchange happened, only the answer is lost).
	Drop func(ord int, probe []byte) bool
	// Dup delivers the response twice.
	Dup func(ord int) bool
	// Delay withholds the response for n ReadBatch calls; it models late
	// arrival within the probe's deadline (loss past the deadline is what
	// Drop is for), so held responses are still delivered before ReadBatch
	// ever reports a timeout.
	Delay func(ord int) int
	// Reorder delivers newest-first instead of oldest-first.
	Reorder bool
}

type heldResp struct {
	after int
	pkt   []byte
}

func (c *SimConn) WriteBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("fake: closed")
	}
	limit, werr := len(dgs), error(nil)
	if c.WriteErr != nil {
		call := c.writeCalls
		c.writeCalls++
		if s, err := c.WriteErr(call, len(dgs)); err != nil {
			limit, werr = s, err
		}
	}
	for _, dg := range dgs[:limit] {
		ord := c.seq
		c.seq++
		probe := append([]byte(nil), dg.Buf...)
		c.sends = append(c.sends, probe)
		resp, ok := c.Respond(probe)
		if !ok {
			continue
		}
		if c.Sched.Drop != nil && c.Sched.Drop(ord, probe) {
			continue
		}
		n := 1
		if c.Sched.Dup != nil && c.Sched.Dup(ord) {
			n = 2
		}
		d := 0
		if c.Sched.Delay != nil {
			d = c.Sched.Delay(ord)
		}
		for ; n > 0; n-- {
			if d > 0 {
				c.held = append(c.held, heldResp{after: d, pkt: resp})
			} else {
				c.queue = append(c.queue, resp)
			}
		}
	}
	return limit, werr
}

func (c *SimConn) ReadBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("fake: closed")
	}
	if c.ReadErr != nil {
		call := c.readCalls
		c.readCalls++
		if err := c.ReadErr(call); err != nil {
			return 0, err
		}
	}
	// Advance the virtual clock: release held responses as their delay
	// elapses. A timeout is only reported once nothing is held either —
	// delayed responses are late, not lost.
	for {
		kept := c.held[:0]
		for _, h := range c.held {
			h.after--
			if h.after <= 0 {
				c.queue = append(c.queue, h.pkt)
			} else {
				kept = append(kept, h)
			}
		}
		c.held = kept
		if len(c.queue) > 0 {
			break
		}
		if len(c.held) == 0 {
			return 0, ErrTimeout
		}
	}
	filled := 0
	for filled < len(dgs) && len(c.queue) > 0 {
		var pkt []byte
		if c.Sched.Reorder {
			pkt = c.queue[len(c.queue)-1]
			c.queue = c.queue[:len(c.queue)-1]
		} else {
			pkt = c.queue[0]
			c.queue = c.queue[1:]
		}
		n := copy(dgs[filled].Buf, pkt)
		dgs[filled].N = n
		filled++
	}
	return filled, nil
}

func (c *SimConn) SetReadDeadline(time.Time) error { return nil }

func (c *SimConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// KernelDrops implements dropCounter for receive-pressure tests.
func (c *SimConn) KernelDrops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.KDrops
}

// SetKernelDrops bumps the fake's cumulative kernel-drop counter.
func (c *SimConn) SetKernelDrops(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.KDrops = v
}

// SendCount returns how many probes have hit the wire so far.
func (c *SimConn) SendCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sends)
}
