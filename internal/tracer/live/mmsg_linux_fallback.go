//go:build linux && !amd64 && !arm64

package live

import (
	"fmt"
	"syscall"
	"unsafe"
)

// Architectures without a vetted mmsghdr layout take the per-packet
// Sendto/Recvfrom path; the transport semantics are identical, only the
// syscall amortization is lost.

const haveMmsg = false

// mmsgScratch is empty here: there are no batch syscalls to keep headers for.
type mmsgScratch struct{}

func sendmmsg(int, []Datagram, *mmsgScratch) (int, error) { return 0, syscall.ENOSYS }

// recvmmsg is unsupported here; the Recvfrom path also carries no
// SO_RXQ_OVFL control messages, so kernel drop counts stay zero.
func recvmmsg(int, []Datagram, *mmsgScratch) (int, uint32, error) { return 0, 0, syscall.ENOSYS }

// fdBits is the width of one FdSet.Bits word (64 on LP64, 32 on ILP32).
var fdBits = 8 * int(unsafe.Sizeof(syscall.FdSet{}.Bits[0]))

// waitReadable blocks via select until one of the two sockets (or the
// wake pipe, when wakeFD >= 0) is readable or the timeout elapses (nil:
// wait forever). select carries the FD_SETSIZE ceiling, so out-of-range
// descriptors are rejected with a clear error instead of indexing past
// the bit set.
func waitReadable(fd1, fd2, wakeFD int, tmo *syscall.Timespec) (r1, r2, woke bool, err error) {
	var rfds syscall.FdSet
	limit := fdBits * len(rfds.Bits)
	if fd1 >= limit || fd2 >= limit || wakeFD >= limit {
		return false, false, false, fmt.Errorf("live: descriptor beyond select's FD_SETSIZE (%d); lower the process's open-file count", limit)
	}
	set := func(fd int) {
		rfds.Bits[fd/fdBits] |= 1 << (uint(fd) % uint(fdBits))
	}
	isSet := func(fd int) bool {
		return rfds.Bits[fd/fdBits]&(1<<(uint(fd)%uint(fdBits))) != 0
	}
	set(fd1)
	set(fd2)
	maxFD := fd1
	if fd2 > maxFD {
		maxFD = fd2
	}
	if wakeFD >= 0 {
		set(wakeFD)
		if wakeFD > maxFD {
			maxFD = wakeFD
		}
	}
	var tvp *syscall.Timeval
	if tmo != nil {
		tv := syscall.NsecToTimeval(tmo.Nano())
		tvp = &tv
	}
	n, err := syscall.Select(maxFD+1, &rfds, nil, nil, tvp)
	if err != nil {
		return false, false, false, err
	}
	if n == 0 {
		return false, false, false, nil
	}
	return isSet(fd1), isSet(fd2), wakeFD >= 0 && isSet(wakeFD), nil
}
