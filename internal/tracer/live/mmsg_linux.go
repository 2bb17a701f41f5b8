//go:build linux && (amd64 || arm64)

package live

import (
	"syscall"
	"unsafe"
)

// The batch syscalls. The Go standard library's frozen syscall tables
// predate sendmmsg (and lack recvmmsg on some architectures), so the
// numbers live in sysnum_linux_*.go per architecture; every other platform
// compiles sockets_other.go, which refuses raw-socket probing.

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// returned datagram length, padded to 8 bytes.
type mmsghdr struct {
	hdr  syscall.Msghdr
	mlen uint32
	_    [4]byte
}

// mmsgScratch is one direction's batch-syscall header storage, kept on the
// conn and grown to the largest batch seen, so a steady-state WriteBatch or
// ReadBatch allocates nothing. PacketConn's concurrency contract guards it:
// WriteBatch calls are serialized, and there is one ReadBatch at a time.
type mmsgScratch struct {
	vec  []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4 // send only
	ctrl []byte                     // receive only
}

// grow sizes the headers both directions use for an n-datagram batch.
func (s *mmsgScratch) grow(n int) {
	if cap(s.vec) < n {
		s.vec, s.iovs = make([]mmsghdr, n), make([]syscall.Iovec, n)
	}
	s.vec, s.iovs = s.vec[:n], s.iovs[:n]
}

// sendmmsg transmits every datagram in one syscall, returning how many the
// kernel accepted.
func sendmmsg(fd int, dgs []Datagram, sc *mmsgScratch) (int, error) {
	sc.grow(len(dgs))
	if len(sc.sas) < len(dgs) {
		sc.sas = make([]syscall.RawSockaddrInet4, len(dgs))
	}
	vec, iovs, sas := sc.vec, sc.iovs, sc.sas
	for i := range dgs {
		iovs[i].Base = &dgs[i].Buf[0]
		iovs[i].SetLen(len(dgs[i].Buf))
		sas[i] = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: dgs[i].Dst}
		vec[i] = mmsghdr{}
		vec[i].hdr.Name = (*byte)(unsafe.Pointer(&sas[i]))
		vec[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
		vec[i].hdr.Iov = &iovs[i]
		vec[i].hdr.Iovlen = 1
	}
	n, _, errno := syscall.Syscall6(sysSendmmsg,
		uintptr(fd), uintptr(unsafe.Pointer(&vec[0])), uintptr(len(vec)), 0, 0, 0)
	if errno != 0 {
		return int(n), errno
	}
	return int(n), nil
}

// recvCtrlSpace sizes one message's control buffer: room for the
// SO_RXQ_OVFL cmsg (header plus a uint32) with alignment slack.
const recvCtrlSpace = 48

// recvmmsg drains every immediately-available datagram into dgs in one
// nonblocking syscall, filling each entry's N. The second return value is
// the largest SO_RXQ_OVFL overflow counter seen in the sweep's control
// messages — the kernel attaches the cumulative per-socket drop count to
// every datagram once the option is enabled — or 0 when none arrived.
func recvmmsg(fd int, dgs []Datagram, sc *mmsgScratch) (int, uint32, error) {
	sc.grow(len(dgs))
	if len(sc.ctrl) < len(dgs)*recvCtrlSpace {
		sc.ctrl = make([]byte, len(dgs)*recvCtrlSpace)
	}
	vec, iovs, ctrl := sc.vec, sc.iovs, sc.ctrl
	for i := range dgs {
		iovs[i].Base = &dgs[i].Buf[0]
		iovs[i].SetLen(len(dgs[i].Buf))
		vec[i] = mmsghdr{}
		vec[i].hdr.Iov = &iovs[i]
		vec[i].hdr.Iovlen = 1
		vec[i].hdr.Control = &ctrl[i*recvCtrlSpace]
		vec[i].hdr.SetControllen(recvCtrlSpace)
	}
	n, _, errno := syscall.Syscall6(sysRecvmmsg,
		uintptr(fd), uintptr(unsafe.Pointer(&vec[0])), uintptr(len(vec)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	if errno != 0 {
		return int(n), 0, errno
	}
	var ovfl uint32
	for i := 0; i < int(n); i++ {
		dgs[i].N = int(vec[i].mlen)
		if clen := int(vec[i].hdr.Controllen); clen > 0 && clen <= recvCtrlSpace {
			if v, ok := parseRxqOvfl(ctrl[i*recvCtrlSpace : i*recvCtrlSpace+clen]); ok && v > ovfl {
				ovfl = v
			}
		}
	}
	return int(n), ovfl, nil
}

// parseRxqOvfl extracts the SO_RXQ_OVFL counter from one message's
// control region, if present.
func parseRxqOvfl(b []byte) (uint32, bool) {
	msgs, err := syscall.ParseSocketControlMessage(b)
	if err != nil {
		return 0, false
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == soRXQOvfl && len(m.Data) >= 4 {
			return uint32(m.Data[0]) | uint32(m.Data[1])<<8 | uint32(m.Data[2])<<16 | uint32(m.Data[3])<<24, true
		}
	}
	return 0, false
}

// pollFD mirrors struct pollfd.
type pollFD struct {
	fd      int32
	events  int16
	revents int16
}

const pollIn = 0x1

// waitReadable blocks via ppoll until one of the two sockets or the wake
// pipe is readable or the timeout elapses (nil: wait forever). ppoll
// carries no FD_SETSIZE ceiling, so descriptors above 1024 — routine in a
// process that opens one Transport per campaign worker — work unchanged.
func waitReadable(fd1, fd2, wakeFD int, tmo *syscall.Timespec) (r1, r2, woke bool, err error) {
	pfds := [3]pollFD{
		{fd: int32(fd1), events: pollIn},
		{fd: int32(fd2), events: pollIn},
		{fd: int32(wakeFD), events: pollIn},
	}
	n, _, errno := syscall.Syscall6(sysPpoll,
		uintptr(unsafe.Pointer(&pfds[0])), uintptr(len(pfds)),
		uintptr(unsafe.Pointer(tmo)), 0, 0, 0)
	if errno != 0 {
		return false, false, false, errno
	}
	if n == 0 {
		return false, false, false, nil
	}
	return pfds[0].revents&pollIn != 0, pfds[1].revents&pollIn != 0,
		pfds[2].revents&pollIn != 0, nil
}
