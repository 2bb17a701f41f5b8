//go:build linux && (amd64 || arm64)

package live

import (
	"errors"
	"fmt"
	"slices"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// udpRawConn builds a rawConn whose two receive sockets are UDP sockets
// bound to 127.0.0.1, with the wake pipe and SO_RXQ_OVFL set as dialRaw
// sets them, so the receive path (ppoll, recvmmsg, the wake pipe, the drop
// tallies) runs without privileges. Its send socket is a third UDP socket,
// which send uses to queue datagrams on either receiver. rcvbuf, when
// positive, sets both receivers' SO_RCVBUF.
func udpRawConn(t *testing.T, rcvbuf int) (c *rawConn, icmpTo, tcpTo *syscall.SockaddrInet4) {
	t.Helper()
	sock := func() int {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}
	bind := func(fd int) *syscall.SockaddrInet4 {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soRXQOvfl, 1); err != nil {
			t.Fatalf("SO_RXQ_OVFL: %v", err)
		}
		if rcvbuf > 0 {
			if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvbuf); err != nil {
				t.Fatalf("SO_RCVBUF: %v", err)
			}
		}
		if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
			t.Fatal(err)
		}
		sa, err := syscall.Getsockname(fd)
		if err != nil {
			t.Fatal(err)
		}
		return sa.(*syscall.SockaddrInet4)
	}
	c = &rawConn{sendFD: sock(), icmpFD: sock(), tcpFD: sock()}
	icmpTo, tcpTo = bind(c.icmpFD), bind(c.tcpFD)
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}
	c.wakeRd, c.wakeWr = pipe[0], pipe[1]
	t.Cleanup(func() { c.Close() })
	return c, icmpTo, tcpTo
}

// send queues each payload on the receiver at to.
func send(t *testing.T, c *rawConn, to *syscall.SockaddrInet4, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := syscall.Sendto(c.sendFD, []byte(p), 0, to); err != nil {
			t.Fatalf("send %q: %v", p, err)
		}
	}
}

// recvBufs returns n receive slots of 1,500 bytes.
func recvBufs(n int) []Datagram {
	dgs := make([]Datagram, n)
	for i := range dgs {
		dgs[i].Buf = make([]byte, 1500)
	}
	return dgs
}

// settle waits until both receivers poll readable and then a little longer,
// so every datagram sent over loopback sits in its receive queue before the
// read under test.
func settle(t *testing.T, c *rawConn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts := syscall.NsecToTimespec(int64(10 * time.Millisecond))
		r1, r2, _, err := waitReadable(c.icmpFD, c.tcpFD, c.wakeRd, &ts)
		if err != nil && err != syscall.EINTR {
			t.Fatal(err)
		}
		if r1 && r2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sent datagrams never arrived")
		}
	}
	time.Sleep(20 * time.Millisecond)
}

// TestRawConnReadBatchDrainsBothSockets: one ReadBatch takes every datagram
// queued on both receive sockets, each sweep whole, within its slots.
func TestRawConnReadBatchDrainsBothSockets(t *testing.T) {
	c, icmpTo, tcpTo := udpRawConn(t, 0)
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, fmt.Sprintf("icmp-%d", i))
	}
	for i := 0; i < 3; i++ {
		want = append(want, fmt.Sprintf("tcp-%d", i))
	}
	send(t, c, icmpTo, want[:5]...)
	send(t, c, tcpTo, want[5:]...)
	settle(t, c)

	c.SetReadDeadline(time.Now().Add(time.Second))
	dgs := recvBufs(16)
	n, err := c.ReadBatch(dgs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, dg := range dgs[:n] {
		got = append(got, string(dg.Buf[:dg.N]))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("one ReadBatch read %q, want every queued datagram %q", got, want)
	}

	// Fewer slots than datagrams: the read fills them all and leaves the
	// rest queued, the other socket's included, for the next one.
	send(t, c, icmpTo, want[:4]...)
	send(t, c, tcpTo, want[5])
	settle(t, c)
	if n, err := c.ReadBatch(dgs[:2]); n != 2 || err != nil {
		t.Fatalf("ReadBatch into 2 slots: %d, %v; want 2, nil", n, err)
	}
	if n, err := c.ReadBatch(dgs); n != 3 || err != nil {
		t.Fatalf("ReadBatch of the rest: %d, %v; want 3, nil", n, err)
	}
}

// TestRawConnReadBatchTimeout: an expired deadline, and one that expires
// while the read waits on empty sockets, both return ErrTimeout.
func TestRawConnReadBatchTimeout(t *testing.T) {
	c, _, _ := udpRawConn(t, 0)
	dgs := recvBufs(4)
	c.SetReadDeadline(time.Now().Add(-time.Millisecond))
	if n, err := c.ReadBatch(dgs); n != 0 || !errors.Is(err, ErrTimeout) {
		t.Errorf("expired deadline: %d, %v; want 0, ErrTimeout", n, err)
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.ReadBatch(dgs); n != 0 || !errors.Is(err, ErrTimeout) {
		t.Errorf("deadline reached while waiting: %d, %v; want 0, ErrTimeout", n, err)
	}
}

// TestRawConnWakePopsBlockedRead: Wake returns a read blocked without a
// deadline with (0, nil), and the wake is consumed, so the next read waits
// for its own deadline again.
func TestRawConnWakePopsBlockedRead(t *testing.T) {
	c, _, _ := udpRawConn(t, 0)
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := c.ReadBatch(recvBufs(4))
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("ReadBatch returned %d, %v before any wake", r.n, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	c.Wake()
	select {
	case r := <-done:
		if r.n != 0 || r.err != nil {
			t.Fatalf("woken ReadBatch: %d, %v; want 0, nil", r.n, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wake did not pop the blocked ReadBatch")
	}
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.ReadBatch(recvBufs(4)); n != 0 || !errors.Is(err, ErrTimeout) {
		t.Errorf("read after a consumed wake: %d, %v; want 0, ErrTimeout", n, err)
	}
}

// TestRawConnKernelDrops overflows a receiver at the smallest SO_RCVBUF.
// The kernel stamps its running drop count on each datagram it queues, so
// once the queue has room again the next datagram carries the count, and
// the read that takes it reports it through KernelDrops.
func TestRawConnKernelDrops(t *testing.T) {
	c, icmpTo, _ := udpRawConn(t, 1) // the kernel raises it to its floor
	const burst = 256
	payload := string(make([]byte, 512))
	for i := 0; i < burst; i++ {
		send(t, c, icmpTo, payload)
	}
	dgs := recvBufs(burst)
	c.SetReadDeadline(time.Now().Add(time.Second))
	n, err := c.ReadBatch(dgs)
	if err != nil {
		t.Fatal(err)
	}
	if n >= burst {
		t.Fatalf("all %d datagrams fit the smallest receive buffer: nothing overflowed", n)
	}
	if c.KernelDrops() != 0 {
		t.Fatalf("KernelDrops = %d before any datagram queued after the drops", c.KernelDrops())
	}
	send(t, c, icmpTo, "after")
	c.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := c.ReadBatch(dgs); n != 1 || err != nil {
		t.Fatalf("ReadBatch after the overflow: %d, %v; want 1, nil", n, err)
	}
	if got, want := c.KernelDrops(), uint64(burst-n); got != want {
		t.Errorf("KernelDrops = %d, want the %d datagrams that did not fit", got, want)
	}
}

// cmsg builds one control message carrying data.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, syscall.CmsgSpace(len(data)))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = level, typ
	h.SetLen(syscall.CmsgLen(len(data)))
	copy(b[syscall.CmsgLen(0):], data)
	return b
}

func TestParseRxqOvfl(t *testing.T) {
	ovfl := []byte{0x07, 0x01, 0x00, 0x80} // 0x80000107, little-endian
	for _, c := range []struct {
		name string
		b    []byte
		want uint32
		ok   bool
	}{
		{"empty", nil, 0, false},
		{"overflow counter", cmsg(syscall.SOL_SOCKET, soRXQOvfl, ovfl), 0x80000107, true},
		{"zero counter", cmsg(syscall.SOL_SOCKET, soRXQOvfl, make([]byte, 4)), 0, true},
		{"other level", cmsg(syscall.IPPROTO_IP, soRXQOvfl, ovfl), 0, false},
		{"other type", cmsg(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, ovfl), 0, false},
		{"short data", cmsg(syscall.SOL_SOCKET, soRXQOvfl, ovfl[:3]), 0, false},
		{"after another message", append(cmsg(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, make([]byte, 16)),
			cmsg(syscall.SOL_SOCKET, soRXQOvfl, ovfl)...), 0x80000107, true},
		{"truncated header", cmsg(syscall.SOL_SOCKET, soRXQOvfl, ovfl)[:syscall.CmsgLen(0)-1], 0, false},
		{"length past the buffer", cmsg(syscall.SOL_SOCKET, soRXQOvfl, ovfl)[:syscall.CmsgLen(2)], 0, false},
	} {
		if got, ok := parseRxqOvfl(c.b); got != c.want || ok != c.ok {
			t.Errorf("%s: parseRxqOvfl = %#x, %v; want %#x, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}
