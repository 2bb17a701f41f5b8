package live

import (
	"errors"
	"time"
)

// Datagram is one packet in a batched socket operation. On send, Buf holds
// the complete serialized IPv4 probe (header included — the raw socket is
// opened with IP_HDRINCL so every header field the probe builders craft goes
// on the wire verbatim) and Dst the IPv4 address it is addressed to. On
// receive, Buf is the caller-owned buffer the socket fills and N the number
// of valid bytes.
type Datagram struct {
	Buf []byte
	N   int
	Dst [4]byte
}

// ErrTimeout is returned by PacketConn.ReadBatch when the read deadline
// passes with no datagram available. The mux's deadline wheel treats
// it as the expiry signal for the probes still in flight.
var ErrTimeout = errors.New("live: receive timeout")

// PacketConn is the syscall seam under the live transport: everything the
// batching, demultiplexing, timeout and retry logic needs from the kernel,
// and nothing else. The real implementation (dialRaw, linux/amd64 and
// linux/arm64 only) backs it with raw sockets and the sendmmsg/recvmmsg
// batch syscalls; tests back it with an in-process fake that can reorder, drop, duplicate and delay
// responses, which is what lets the entire live path run hermetically.
//
// Concurrency contract, which lets an implementation keep per-direction
// scratch without locking: WriteBatch calls are serialized by the caller
// (the mux sends under its lock); one ReadBatch runs at a time, and
// SetReadDeadline and the optional dropCounter are called only by that
// reader, between its reads (the mux's reader role); a WriteBatch may
// overlap a ReadBatch. Wake and Close may be called from anywhere, at any
// time.
type PacketConn interface {
	// WriteBatch sends every datagram, in order, in as few syscalls as the
	// platform allows (one sendmmsg per call on the raw sockets). It returns the
	// number of datagrams sent; n < len(dgs) only alongside a non-nil
	// error.
	WriteBatch(dgs []Datagram) (int, error)
	// ReadBatch blocks until at least one inbound datagram is available or
	// the deadline set by SetReadDeadline passes, then fills as many
	// entries of dgs as are immediately ready (one recvmmsg sweep) and
	// returns how many. A deadline expiry returns 0, ErrTimeout. A conn
	// implementing waker may also return 0, nil — a spurious wake-up;
	// callers must re-arm and read again rather than treat it as expiry.
	ReadBatch(dgs []Datagram) (int, error)
	// SetReadDeadline bounds subsequent ReadBatch calls. The zero time
	// means no deadline.
	SetReadDeadline(t time.Time) error
	// Close releases the underlying sockets.
	Close() error
}

// waker is the optional wake-up seam on a PacketConn: Wake makes a
// concurrently blocked ReadBatch return early with (0, nil) instead of
// waiting out its full deadline. The shared mux uses it when a worker
// registers probes whose deadline is earlier than the one the reader is
// currently blocked on, so adaptive (shorter-than-cap) timeouts are
// honored promptly, and to pop the reader out on Close and on context
// cancellation. Wake must be safe to call concurrently and must
// never block. Conns without the seam merely detect such deadlines late —
// correctness is unaffected, only timeout latency.
type waker interface {
	Wake()
}

// dropCounter is the optional receive-pressure seam on a PacketConn:
// KernelDrops reports the cumulative number of inbound datagrams the
// kernel discarded because the socket receive queues were full
// (SO_RXQ_OVFL on Linux), counted over the conn's lifetime. The mux polls
// it after every read turn; any increase is a pressure event. Conns
// without the seam (or platforms without the counter) simply contribute
// no kernel-drop signal — read-lag detection still applies.
type dropCounter interface {
	KernelDrops() uint64
}
