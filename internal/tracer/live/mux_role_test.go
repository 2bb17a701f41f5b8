package live

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tracer"
)

// The reader-role protocol under real blocking. Every other hermetic conn
// returns from ReadBatch at once, so none of them ever shows a worker
// waiting on a reader that is itself parked in the socket; blockConn's
// ReadBatch really blocks — until a datagram is delivered, the deadline
// passes, or Wake — and tells the test each time it parks, so every step
// below waits on the event it needs and never on a sleep.

type blockConn struct {
	mu       sync.Mutex
	queue    [][]byte
	deadline time.Time
	woken    bool
	closed   bool
	sends    int
	signal   chan struct{} // capacity 1: something changed, look again
	parked   chan struct{} // one token per ReadBatch that found nothing and parked
	wrote    chan struct{} // one token per WriteBatch
	wakes    atomic.Int32
}

func newBlockConn() *blockConn {
	// The token channels are sized past anything a test produces, so the
	// conn never blocks on a test that does not listen.
	return &blockConn{signal: make(chan struct{}, 1), parked: make(chan struct{}, 64), wrote: make(chan struct{}, 64)}
}

func (c *blockConn) poke() {
	select {
	case c.signal <- struct{}{}:
	default:
	}
}

// Deliver makes pkt readable.
func (c *blockConn) Deliver(pkt []byte) {
	c.mu.Lock()
	c.queue = append(c.queue, pkt)
	c.mu.Unlock()
	c.poke()
}

func (c *blockConn) Wake() {
	c.wakes.Add(1)
	c.mu.Lock()
	c.woken = true
	c.mu.Unlock()
	c.poke()
}

func (c *blockConn) WriteBatch(dgs []Datagram) (int, error) {
	c.mu.Lock()
	c.sends += len(dgs)
	c.mu.Unlock()
	c.wrote <- struct{}{}
	return len(dgs), nil
}

func (c *blockConn) SendCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends
}

func (c *blockConn) ReadBatch(dgs []Datagram) (int, error) {
	for {
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			return 0, errors.New("blockConn: closed")
		case len(c.queue) > 0:
			n := 0
			for ; n < len(dgs) && n < len(c.queue); n++ {
				dgs[n].N = copy(dgs[n].Buf, c.queue[n])
			}
			c.queue = c.queue[n:]
			c.mu.Unlock()
			return n, nil
		case c.woken:
			c.woken = false
			c.mu.Unlock()
			return 0, nil
		}
		remain := time.Until(c.deadline)
		c.mu.Unlock()
		if remain <= 0 {
			return 0, ErrTimeout
		}
		c.parked <- struct{}{}
		timer := time.NewTimer(remain)
		select {
		case <-c.signal:
			timer.Stop()
		case <-timer.C:
			return 0, ErrTimeout
		}
	}
}

func (c *blockConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

func (c *blockConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.poke()
	return nil
}

// exchangeAsync runs one single-probe exchange on a goroutine of its own and
// returns the channel its result arrives on.
func exchangeAsync(m *Mux, probe []byte) <-chan tracer.ProbeResult {
	done := make(chan tracer.ProbeResult, 1)
	go func() {
		out := make([]tracer.ProbeResult, 1)
		m.Transport().ExchangeBatch([][]byte{probe}, out)
		done <- out[0]
	}()
	return done
}

// hourMux opens a mux over a blockConn whose deadlines are an hour away:
// whatever these tests wait for must arrive by the protocol, not by a
// timeout (a step that does wait out a deadline hangs the test instead).
func hourMux(t *testing.T, cfg MuxConfig) (*Mux, *blockConn, [][]byte, map[string][]byte) {
	t.Helper()
	src, probes, answers := recordLadder(t, tracer.NewParisUDP, 0, 4)
	conn := newBlockConn()
	cfg.Source, cfg.Conn, cfg.Timeout = src, conn, time.Hour
	m, err := NewMux(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, conn, probes, answers
}

// readerAndFollower starts two single-probe exchanges and returns once the
// first holds the reader role, blocked in the read, and the second has
// registered and sent behind it — after which it can only sleep.
func readerAndFollower(m *Mux, conn *blockConn, probes [][]byte) (reader, follower <-chan tracer.ProbeResult) {
	reader = exchangeAsync(m, probes[0])
	<-conn.wrote
	<-conn.parked
	follower = exchangeAsync(m, probes[1])
	<-conn.wrote
	return reader, follower
}

// TestMuxRoleHandOffToFollower: the reader's batch completes while a
// follower's is still in flight. The follower must take the role over and
// receive an answer that is delivered only afterwards.
func TestMuxRoleHandOffToFollower(t *testing.T) {
	m, conn, probes, answers := hourMux(t, MuxConfig{})
	defer m.Close()

	first, second := readerAndFollower(m, conn, probes)

	conn.Deliver(answers[string(probes[0])])
	if r := <-first; !r.OK || string(r.Resp) != string(answers[string(probes[0])]) {
		t.Fatalf("reader's probe: %+v", r)
	}
	<-conn.parked // somebody reads again: it can only be the follower
	conn.Deliver(answers[string(probes[1])])
	if r := <-second; !r.OK || string(r.Resp) != string(answers[string(probes[1])]) {
		t.Fatalf("follower's probe, answered after the hand-off: %+v", r)
	}
	assertMuxDrained(t, m)
}

// TestMuxReaderResolvesFollower is the other half: an answer to the
// follower's probe that arrives while the first worker reads is dispatched
// by that reader, and the follower returns without ever touching the conn.
func TestMuxReaderResolvesFollower(t *testing.T) {
	m, conn, probes, answers := hourMux(t, MuxConfig{})
	defer m.Close()

	first, second := readerAndFollower(m, conn, probes)

	conn.Deliver(answers[string(probes[1])])
	if r := <-second; !r.OK {
		t.Fatalf("follower's probe: %+v", r)
	}
	<-conn.parked // the same reader, back in the read for its own probe
	conn.Deliver(answers[string(probes[0])])
	if r := <-first; !r.OK {
		t.Fatalf("reader's probe: %+v", r)
	}
	assertMuxDrained(t, m)
}

// settleGoroutines yields until the goroutine count is back to want, which
// exited goroutines reach without any sleeping.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestMuxCloseWithBlockedReader: NewMux starts no goroutine (with or
// without a Context); Close with a worker blocked in the read returns, that
// worker's exchange fails with the closed error, and nothing is left
// running.
func TestMuxCloseWithBlockedReader(t *testing.T) {
	before := settleGoroutines(0) // other tests' finished workers first
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, conn, probes, _ := hourMux(t, MuxConfig{Context: ctx})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewMux left %d goroutines running, %d before it", n, before)
	}
	reader, follower := readerAndFollower(m, conn, probes)

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []<-chan tracer.ProbeResult{reader, follower} {
		if r := <-ch; !errors.Is(r.Err, errMuxClosed) {
			t.Fatalf("exchange cut short by Close: %+v, want the closed error", r)
		}
	}
	if err := m.Close(); err != nil { // idempotent, and nothing left to wait for
		t.Fatal(err)
	}
	assertMuxDrained(t, m)
	if n := settleGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before NewMux", n, before)
	}
}

// TestMuxCancelWithBlockedReader: cancelling the Context fails the blocked
// reader and the sleeping follower at once — an hour short of the deadline
// — and every later exchange, which no longer reaches the conn.
func TestMuxCancelWithBlockedReader(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, conn, probes, _ := hourMux(t, MuxConfig{Context: ctx})
	defer m.Close()
	reader, follower := readerAndFollower(m, conn, probes)

	cancel()
	for _, ch := range []<-chan tracer.ProbeResult{reader, follower} {
		if r := <-ch; !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("exchange cut short by cancellation: %+v, want context.Canceled", r)
		}
	}
	if conn.wakes.Load() == 0 {
		t.Error("the blocked reader was not woken through the waker seam")
	}
	sent := conn.SendCount()
	if r := <-exchangeAsync(m, probes[2]); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("exchange after cancellation: %+v, want context.Canceled", r)
	}
	if conn.SendCount() != sent {
		t.Error("an exchange against a cancelled mux still reached the conn")
	}
	assertMuxDrained(t, m)
}

// TestMuxEarlierDeadlineWakesReader: the reader is blocked on an hour-long
// deadline (a destination with no RTT sample waits out the cap) when a
// follower registers a probe toward a sampled destination, due at the
// floor. The follower must wake the reader, which re-arms at the earlier
// deadline and stars the follower's silent probe when it passes.
func TestMuxEarlierDeadlineWakesReader(t *testing.T) {
	_, otherProbes, _ := recordLadder(t, tracer.NewParisUDP, 1, 1)
	m, conn, probes, answers := hourMux(t, MuxConfig{TimeoutFloor: 20 * time.Millisecond})
	defer m.Close()

	// One answered exchange samples the ladder's destination.
	sampled := exchangeAsync(m, probes[0])
	<-conn.wrote
	<-conn.parked
	conn.Deliver(answers[string(probes[0])])
	if r := <-sampled; !r.OK {
		t.Fatalf("sampling exchange: %+v", r)
	}

	reader := exchangeAsync(m, otherProbes[0]) // unsampled destination: due in an hour
	<-conn.wrote
	<-conn.parked
	wakes := conn.wakes.Load()
	follower := exchangeAsync(m, probes[1]) // sampled destination: due at the floor
	if r := <-follower; r.OK || r.Err != nil {
		t.Fatalf("follower's silent probe: %+v, want a star", r)
	}
	if conn.wakes.Load() == wakes {
		t.Error("registering an earlier deadline did not wake the reader")
	}
	select {
	case r := <-reader:
		t.Fatalf("reader's probe resolved an hour early: %+v", r)
	default:
	}
}

// TestMuxPanickingCallbackFreesRole: an OnPressure callback that panics
// takes its worker's exchange down with it, and nothing else: the role is
// free for the next exchange, and the table holds nothing of the abandoned
// batch.
func TestMuxPanickingCallbackFreesRole(t *testing.T) {
	sc := muxTopo(t, 2, 37)
	fake := &SimConn{}
	inner := netsimResponder(sc.Net)
	fake.Respond = func(probe []byte) ([]byte, bool) {
		fake.KDrops += 3 // fake.mu is held by WriteBatch here
		return inner(probe)
	}
	var calls atomic.Int32
	m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: fake,
		OnPressure: func(tracer.MuxHealth) {
			if calls.Add(1) == 1 {
				panic("pressure callback gave up")
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0])
	}()
	if panicked == nil {
		t.Fatal("the callback's panic did not reach the exchanging worker")
	}
	assertMuxDrained(t, m)
	want := muxBaseline(t, muxTopo(t, 2, 37))
	got, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[1])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want[1]) {
		t.Errorf("route traced after the panic differs from the baseline")
	}
	assertMuxDrained(t, m)
}

// TestMuxRedialKeepsFollowersProbes: a second worker registers while the
// reader is inside its redial (the window where the mux has no conn at
// all). Its probes cannot be sent then; they must ride the reader's
// re-send on the new conn, and both routes must equal the baseline.
func TestMuxRedialKeepsFollowersProbes(t *testing.T) {
	const seed, dests = 29, 2
	want := muxBaseline(t, muxTopo(t, dests, seed))
	sc := muxTopo(t, dests, seed)
	responder := netsimResponder(sc.Net)
	dead := &SimConn{Respond: responder,
		ReadErr: func(int) error { return errors.New("fake: network down") }}
	var (
		m        *Mux
		follower = make(chan *tracer.Route, 1)
		fresh    = &SimConn{Respond: responder}
	)
	m, err := NewMux(MuxConfig{
		Source: sc.Net.Source(), Conn: dead, Sleep: func(time.Duration) {},
		Redial: func() (PacketConn, error) {
			stranded := m.Health().InFlight
			go func() {
				r, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[1])
				if err != nil {
					t.Errorf("follower: %v", err)
				}
				follower <- r
			}()
			for m.Health().InFlight == stranded {
				runtime.Gosched() // until the follower has registered its window
			}
			return fresh, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := tracer.NewParisUDP(m.Transport(), tracer.Options{Batch: true}).Trace(sc.Dests[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want[0]) {
		t.Error("reader's route differs after the redial")
	}
	if r := <-follower; r == nil || !r.Equal(want[1]) {
		t.Error("follower's route differs: its probes, registered mid-redial, were lost or mis-sent")
	}
	if h := m.Health(); h.Reopens != 1 {
		t.Errorf("reopens = %d, want 1", h.Reopens)
	}
	// The dead conn saw the reader's first window and nothing else: the
	// follower's probes waited for the new conn.
	if n := dead.SendCount(); n != tracer.DefaultBatchWindow {
		t.Errorf("dead conn saw %d sends, want the reader's first window (%d)", n, tracer.DefaultBatchWindow)
	}
	assertMuxDrained(t, m)
}

// parkingConn is a SimConn whose next timeout can be held between the
// moment the read found nothing deliverable and the moment it says so: the
// window in which another worker's send, and its answer, land behind the
// read's back.
type parkingConn struct {
	*SimConn
	park    atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (c *parkingConn) ReadBatch(dgs []Datagram) (int, error) {
	n, err := c.SimConn.ReadBatch(dgs)
	if errors.Is(err, ErrTimeout) && c.park.CompareAndSwap(true, false) {
		c.parked <- struct{}{}
		<-c.release
	}
	return n, err
}

// TestMuxExpirySparesProbesSentDuringTheRead pins the virtual-clock expiry
// race. The reader's read finds nothing and is about to report a timeout
// for a deadline two seconds out (an unsampled destination); meanwhile a
// second worker sends a probe toward a sampled destination — due at the
// 100 ms floor, so "due by" the expiring deadline — and its answer is
// already queued. The timeout predates that send and says nothing about
// it: the probe must not be expired (with no retries left it would be
// starred with its answer waiting; with retries it would be re-sent for
// nothing). The next read delivers the answer.
func TestMuxExpirySparesProbesSentDuringTheRead(t *testing.T) {
	sc := muxTopo(t, 2, 61)
	silent := sc.Dests[0].As4()
	inner := netsimResponder(sc.Net)
	conn := &parkingConn{parked: make(chan struct{}), release: make(chan struct{}),
		SimConn: &SimConn{Respond: func(probe []byte) ([]byte, bool) {
			if [4]byte(probe[16:20]) == silent {
				return nil, false
			}
			return inner(probe)
		}}}
	m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: conn})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	_, toSilent, _ := recordLadderIn(t, sc, tracer.NewParisUDP, 0, 1)
	_, toSampled, _ := recordLadderIn(t, sc, tracer.NewParisUDP, 1, 2)
	if r := <-exchangeAsync(m, toSampled[0]); !r.OK {
		t.Fatalf("sampling exchange: %+v", r)
	}

	conn.park.Store(true)
	reader := exchangeAsync(m, toSilent[0])
	<-conn.parked // the reader's read has found nothing and not yet said so
	sent := conn.SendCount()
	second := exchangeAsync(m, toSampled[1])
	for conn.SendCount() == sent {
		runtime.Gosched() // until the second probe is on the wire, its answer queued
	}
	conn.release <- struct{}{}

	if r := <-second; !r.OK {
		t.Fatalf("probe sent during the expiring read: %+v, want its queued answer", r)
	}
	if r := <-reader; r.OK || r.Err != nil {
		t.Fatalf("reader's silent probe: %+v, want a star", r)
	}
	if got, want := conn.SendCount(), 3; got != want {
		t.Errorf("%d datagrams sent, want %d: one per probe, no retransmit", got, want)
	}
	assertMuxDrained(t, m)
}

// countingTransport counts the probes its worker submits.
type countingTransport struct {
	*MuxTransport
	probes *atomic.Int64
}

func (c countingTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	c.probes.Add(int64(len(probes)))
	c.MuxTransport.ExchangeBatch(probes, out)
}

// TestMuxLossySendCountExact is the same property at fleet scale: eight
// workers, the response to the first transmission of every fifth send lost,
// one retry. Every loss (and every silent hop) costs exactly one
// retransmission and nothing else does, so the conn must have seen that
// many datagrams more than there were probes, to the unit.
func TestMuxLossySendCountExact(t *testing.T) {
	const seed, workers, dests = 67, 8, 16
	want := muxBaseline(t, muxTopo(t, dests, seed))
	sc := muxTopo(t, dests, seed)
	var (
		drops, silent int
		attempted     = make(map[string]bool)
		inner         = netsimResponder(sc.Net)
	)
	fake := &SimConn{
		Respond: func(probe []byte) ([]byte, bool) { // fake.mu is held here
			resp, ok := inner(probe)
			if !ok && !attempted[string(probe)] {
				attempted[string(probe)] = true
				silent++ // a silent hop's probe is retried once too
			}
			return resp, ok
		},
		Sched: SimSchedule{Drop: func(ord int, probe []byte) bool { // fake.mu is held here
			if attempted[string(probe)] {
				return false // never lose a retransmission: one retry must do
			}
			attempted[string(probe)] = true
			if ord%5 != 0 {
				return false
			}
			drops++
			return true
		}}}
	m, err := NewMux(MuxConfig{Source: sc.Net.Source(), Conn: fake, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var probes atomic.Int64
	got := muxTraceAllVia(t, sc, workers, func() tracer.Transport {
		return countingTransport{m.Transport(), &probes}
	})
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("dest %v: route differs from the baseline", sc.Dests[i])
		}
	}
	if drops == 0 {
		t.Fatal("the schedule dropped nothing")
	}
	if sent, want := fake.SendCount(), int(probes.Load())+drops+silent; sent != want {
		t.Errorf("%d datagrams sent for %d probes, %d lost responses and %d silent hops, want exactly %d",
			sent, probes.Load(), drops, silent, want)
	}
	assertMuxDrained(t, m)
}
