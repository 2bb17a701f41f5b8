//go:build linux

package live

import (
	"fmt"
	"net/netip"
	"sync"
	"syscall"
	"time"
)

// soRXQOvfl is SO_RXQ_OVFL, absent from the frozen syscall tables: with it
// set, every received datagram carries a control message holding the
// cumulative count of datagrams the kernel dropped because this socket's
// receive queue was full — the receive-pressure signal the shared mux
// feeds its graceful-degradation policy.
const soRXQOvfl = 40

// rawConn is the real PacketConn: an IP_HDRINCL raw socket for injection
// and two shared raw receive sockets — IPPROTO_ICMP for errors and echo
// replies, IPPROTO_TCP for RST/SYN-ACK terminals. Batches go through
// sendmmsg/recvmmsg where the architecture support is compiled in
// (mmsg_linux_*.go) and degrade to per-packet syscalls otherwise. A
// self-pipe implements the waker seam, and SO_RXQ_OVFL control messages
// (mmsg path only) implement dropCounter.
type rawConn struct {
	sendFD   int
	icmpFD   int
	tcpFD    int
	wakeRd   int
	wakeWr   int
	deadline time.Time
	// rxICMP and rxTCP hold each receive socket's last-seen cumulative
	// overflow count; like the deadline, only the one reader touches them.
	rxICMP, rxTCP uint64
	// tx and rx are the batch syscalls' header scratch: tx belongs to
	// WriteBatch (serialized by the caller), rx to the one reader.
	tx, rx mmsgScratch
	// wakeMu guards the wake pipe against Wake racing Close: once closed,
	// the pipe fds may be reused by the kernel, and a late write would
	// land in an unrelated descriptor.
	wakeMu     sync.Mutex
	wakeClosed bool
}

// dialRaw opens the raw sockets. Requires root or CAP_NET_RAW.
func dialRaw() (PacketConn, error) {
	sendFD, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_RAW)
	if err != nil {
		return nil, fmt.Errorf("live: raw send socket (need root or CAP_NET_RAW): %w", err)
	}
	if err := syscall.SetsockoptInt(sendFD, syscall.IPPROTO_IP, syscall.IP_HDRINCL, 1); err != nil {
		syscall.Close(sendFD)
		return nil, fmt.Errorf("live: IP_HDRINCL: %w", err)
	}
	icmpFD, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_ICMP)
	if err != nil {
		syscall.Close(sendFD)
		return nil, fmt.Errorf("live: raw ICMP receive socket: %w", err)
	}
	tcpFD, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_TCP)
	if err != nil {
		syscall.Close(sendFD)
		syscall.Close(icmpFD)
		return nil, fmt.Errorf("live: raw TCP receive socket: %w", err)
	}
	for _, fd := range []int{icmpFD, tcpFD} {
		if err := syscall.SetNonblock(fd, true); err != nil {
			syscall.Close(sendFD)
			syscall.Close(icmpFD)
			syscall.Close(tcpFD)
			return nil, fmt.Errorf("live: set nonblocking: %w", err)
		}
		// Best effort: kernels without SO_RXQ_OVFL just deliver no drop
		// counts, and KernelDrops stays zero.
		_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soRXQOvfl, 1)
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(sendFD)
		syscall.Close(icmpFD)
		syscall.Close(tcpFD)
		return nil, fmt.Errorf("live: wake pipe: %w", err)
	}
	return &rawConn{sendFD: sendFD, icmpFD: icmpFD, tcpFD: tcpFD,
		wakeRd: pipe[0], wakeWr: pipe[1]}, nil
}

// available reports whether this process can open the raw sockets the live
// transport needs (nil means yes). It opens and immediately closes them.
func available() error {
	c, err := dialRaw()
	if err != nil {
		return err
	}
	return c.Close()
}

// Close implements PacketConn.
func (c *rawConn) Close() error {
	c.wakeMu.Lock()
	if !c.wakeClosed {
		c.wakeClosed = true
		syscall.Close(c.wakeRd)
		syscall.Close(c.wakeWr)
	}
	c.wakeMu.Unlock()
	e1 := syscall.Close(c.sendFD)
	e2 := syscall.Close(c.icmpFD)
	e3 := syscall.Close(c.tcpFD)
	if e1 != nil {
		return e1
	}
	if e2 != nil {
		return e2
	}
	return e3
}

// Wake implements waker: one byte down the self-pipe pops a blocked
// ReadBatch out of its poll with a spurious (0, nil). Nonblocking, so a
// pipe already full of unconsumed wakes (the reader is about to wake
// anyway) is a no-op.
func (c *rawConn) Wake() {
	c.wakeMu.Lock()
	if !c.wakeClosed {
		var b [1]byte
		_, _ = syscall.Write(c.wakeWr, b[:])
	}
	c.wakeMu.Unlock()
}

// KernelDrops implements dropCounter: the summed SO_RXQ_OVFL counters of
// both receive sockets, as of their latest recvmmsg sweeps. Called by the
// one reader between its reads, like SetReadDeadline.
func (c *rawConn) KernelDrops() uint64 { return c.rxICMP + c.rxTCP }

// SetReadDeadline implements PacketConn.
func (c *rawConn) SetReadDeadline(t time.Time) error {
	c.deadline = t
	return nil
}

// WriteBatch implements PacketConn: sendmmsg where supported (resuming
// after partial acceptance, so n < len(dgs) is only ever returned alongside
// an error, as the seam contract requires), a Sendto loop otherwise.
func (c *rawConn) WriteBatch(dgs []Datagram) (int, error) {
	sent := 0
	for sent < len(dgs) {
		if haveMmsg {
			n, err := sendmmsg(c.sendFD, dgs[sent:], &c.tx)
			if n > 0 {
				// Partial acceptance (e.g. transient ENOBUFS mid-batch):
				// resume with the unsent tail rather than reporting the
				// probes as sent-or-failed wholesale.
				sent += n
				continue
			}
			if err == syscall.EINTR {
				continue
			}
			if err != nil && err != syscall.ENOSYS {
				return sent, fmt.Errorf("live: sendmmsg: %w", err)
			}
			// ENOSYS (kernel without the syscall): per-packet below.
		}
		dg := &dgs[sent]
		sa := &syscall.SockaddrInet4{Addr: dg.Dst}
		if err := syscall.Sendto(c.sendFD, dg.Buf, 0, sa); err != nil {
			if err == syscall.EINTR {
				continue
			}
			return sent, fmt.Errorf("live: sendto %v: %w", netip.AddrFrom4(dg.Dst), err)
		}
		sent++
	}
	return sent, nil
}

// ReadBatch implements PacketConn: wait on both receive sockets until the
// deadline (ppoll on architectures with the batch syscalls compiled in,
// bounds-checked select otherwise), then drain whatever is ready with one
// recvmmsg sweep per socket.
func (c *rawConn) ReadBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	for {
		var tsp *syscall.Timespec
		if !c.deadline.IsZero() {
			remain := time.Until(c.deadline)
			if remain <= 0 {
				return 0, ErrTimeout
			}
			ts := syscall.NsecToTimespec(remain.Nanoseconds())
			tsp = &ts
		}
		icmpReady, tcpReady, woken, err := waitReadable(c.icmpFD, c.tcpFD, c.wakeRd, tsp)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("live: poll: %w", err)
		}
		if woken {
			c.drainWake()
		}
		if !icmpReady && !tcpReady {
			if woken {
				// Spurious wake-up (waker contract): the caller re-arms
				// with a fresh deadline instead of treating this as expiry.
				return 0, nil
			}
			return 0, ErrTimeout
		}
		filled := 0
		for _, r := range []struct {
			fd    int
			ready bool
		}{{c.icmpFD, icmpReady}, {c.tcpFD, tcpReady}} {
			if filled == len(dgs) || !r.ready {
				continue
			}
			m, err := c.drain(r.fd, dgs[filled:])
			if err != nil {
				return filled, err
			}
			filled += m
		}
		if filled > 0 {
			return filled, nil
		}
		// Readiness without data (consumed elsewhere, checksum drop):
		// wait again within the same deadline.
	}
}

// drainWake empties the self-pipe so coalesced Wake calls cost one byte
// each, not one spurious read turn each.
func (c *rawConn) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(c.wakeRd, buf[:])
		if n < len(buf) || err != nil {
			return
		}
	}
}

// drain reads every immediately-available datagram from fd: one recvmmsg
// where supported, a nonblocking Recvfrom loop otherwise. The recvmmsg
// path also harvests each sweep's SO_RXQ_OVFL overflow counter into the
// per-socket drop tallies.
func (c *rawConn) drain(fd int, dgs []Datagram) (int, error) {
	if haveMmsg {
		n, ovfl, err := recvmmsg(fd, dgs, &c.rx)
		if ovfl > 0 {
			switch fd {
			case c.icmpFD:
				if v := uint64(ovfl); v > c.rxICMP {
					c.rxICMP = v
				}
			case c.tcpFD:
				if v := uint64(ovfl); v > c.rxTCP {
					c.rxTCP = v
				}
			}
		}
		if err == nil || n > 0 {
			return n, nil
		}
		if err == syscall.EAGAIN {
			return 0, nil
		}
	}
	filled := 0
	for filled < len(dgs) {
		n, _, err := syscall.Recvfrom(fd, dgs[filled].Buf, syscall.MSG_DONTWAIT)
		if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK {
			break
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return filled, fmt.Errorf("live: recvfrom: %w", err)
		}
		dgs[filled].N = n
		filled++
	}
	return filled, nil
}

// LocalIPv4 guesses the host's primary IPv4 address by opening a UDP socket
// toward a public address (no packets are sent).
func LocalIPv4() (netip.Addr, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return netip.Addr{}, err
	}
	defer syscall.Close(fd)
	if err := syscall.Connect(fd, &syscall.SockaddrInet4{
		Addr: [4]byte{192, 0, 2, 1}, Port: 53,
	}); err != nil {
		return netip.Addr{}, err
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return netip.Addr{}, err
	}
	sa4, ok := sa.(*syscall.SockaddrInet4)
	if !ok {
		return netip.Addr{}, fmt.Errorf("live: unexpected sockaddr %T", sa)
	}
	return netip.AddrFrom4(sa4.Addr), nil
}
