// Package live carries the repository's probing engines onto the real
// network: one transport, the Mux, whose MuxTransport handles implement
// tracer.Transport / BatchTransport / FallibleTransport over raw IPv4
// sockets, sending whole TTL-ladder windows with one sendmmsg and reading
// responses back with recvmmsg, so the batched amortization the simulator
// path earned applies unchanged to live measurement. A single trace is a mux
// with one handle; a campaign gives every worker a handle on the same mux.
//
// # Response-matching contract
//
// Probes go out with IP_HDRINCL: every header field the engines craft —
// TTL, IP ID, the Paris UDP checksum payload, the compensated ICMP Echo
// identifier — reaches the wire verbatim, exactly as the original
// paris-traceroute tool requires. Responses arrive on shared raw ICMP and
// TCP sockets and are demultiplexed back to their in-flight probes by the
// quoted inner header's flow identifier: an ICMP error quotes the probe's
// IP header plus its first eight transport octets (RFC 792), and those
// octets are precisely where each discipline keeps its flow and probe
// identifiers — the Paris invariant of Section 2.1 of the paper. The match
// key is (inner source, inner destination, inner protocol, inner IP ID,
// first eight quoted transport octets); the quoted TTL and checksum, which
// routers mutate in flight (zero-TTL forwarding, Fig. 4), and the outer
// source address, which NAT boxes rewrite (Fig. 5), are excluded. Terminal
// responses match on what the destination echoes back (Echo identifier and
// sequence; TCP ports and acknowledged sequence number), falling back to
// oldest-unanswered FIFO order when a discipline sends indistinguishable
// probes (tcptraceroute's constant sequence number). The rule is
// internal/tracer/flowkey's, called directly, and the tracer decides
// Hop.Mismatched with the same one: simulated, live and replayed routes are
// held to one definition of "this response is that probe's".
//
// Timeouts, retries, and out-of-order, duplicate, or unrelated responses
// are handled by the mux's deadline wheel: every in-flight probe carries
// its own deadline and attempt count, the reader polls until the earliest
// pending deadline, expired probes are re-sent (up to MuxConfig.Retries
// times) as one batch, and probes that exhaust their attempts resolve as
// stars. Duplicates find their key already gone from the table and are
// dropped; unrelated traffic never matches a key at all.
//
// # Privileges and the socket seam
//
// The syscall layer sits behind the PacketConn interface (sockets.go). The
// real implementation needs root or CAP_NET_RAW, exists on Linux only, and
// is exercised by an opt-in loopback test; everything above the seam — the
// batching, demultiplexing, timeout, retry, and buffer-recycling logic —
// runs identically over an in-process fake and is pinned by differential
// tests against the simulator: ladders driven through a fake that replays
// netsim-generated responses must produce tracer.Routes equal (in every
// path observable) to the netsim transport's, including under injected
// reorder, duplicate, and drop schedules. NewMux returns a descriptive error
// when raw sockets cannot be opened, and callers are expected to fall back
// to the simulator or exit cleanly.
package live

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/tracer"
	"repro/internal/tracer/flowkey"
)

// This file is the demultiplexer: one raw socket pair, the whole fleet. A
// Mux owns a single PacketConn, one registration table and one deadline
// wheel, and no goroutine: any number of workers call ExchangeBatch
// concurrently through the MuxTransport handles it hands out, and whoever
// waits, reads. The worker holding the reader role reads the conn and
// attributes every inbound datagram across all in-flight batches by the
// quoted-flow-identifier keys of the package comment — a mux-global
// registration table with per-batch ownership and race-safe unregister. The
// other waiting workers sleep, each on its own batch's wake channel, until
// their batch completes or the role is handed to them; a reader leaves as
// soon as its own batch is resolved. A mux with one handle is therefore a
// wheel its one caller turns for itself, and an idle mux holds nothing but
// its sockets.
//
// Three robustness layers ride on the shared wheel (see docs/live.md for
// the full contracts):
//
//   - Per-destination adaptive timeouts: an RFC 6298 SRTT/RTTVAR estimator
//     per destination (rtt.go), fed by every first-transmission RTT the
//     wheel observes and never by retransmits (Karn's rule), yields each
//     probe's deadline and retransmit spacing, clamped into
//     [TimeoutFloor, Timeout].
//   - Receive-pressure degradation: kernel drop counts (SO_RXQ_OVFL via
//     the dropCounter seam) and sustained full-buffer read sweeps raise a
//     degrade shift that widens every adaptive timeout toward the cap and
//     fires OnPressure, which binaries wire to tracer.Pacer.SetRate so the
//     probe rate backs off. Every event is counted, never silent.
//   - Supervised socket recovery: a fatal receive error closes and
//     re-opens the socket pair (Redial) with bounded retries, re-sending
//     every in-flight probe on the new conn — attempts preserved, RTT
//     sampling suppressed (the old copy may still answer) — so probes are
//     retried, never lost. Redial exhaustion fails the in-flight probes
//     with the fatal error and marks the mux broken, per the transient/
//     fatal taxonomy.
//
// Lock order: one lock. A worker registers and sends under mu, then either
// takes the reader role (Mux.reader) or sleeps on its batch's wake channel
// with mu released. The reader gives mu up only around the conn read with
// its capture tap, the OnPressure callback and a redial with its back-off
// sleep (Mux.unlocked), and holds it to dispatch, expire and reopen; the
// role is released by defer, under mu, on every path out. Sends from every
// side are serialized by mu and one ReadBatch runs at a time because one
// worker holds the role — PacketConn's concurrency contract. The fake
// conn's virtual clock works unchanged: the read deadline is always the
// earliest wheel deadline, so an ErrTimeout turn expires every slot due by
// then (bar those sent while that read was under way, whose answers may be
// sitting unread until the next turn) and the wheel advances without real
// sleeps.

// MuxConfig parameterizes a shared demultiplexer.
type MuxConfig struct {
	// Source is the local IPv4 address probes carry; LocalIPv4 guesses it.
	Source netip.Addr
	// Timeout caps every adaptive per-probe timeout and is the timeout
	// used before a destination has any RTT sample (the paper's tool
	// waits 2 s). Zero selects 2 s.
	Timeout time.Duration
	// TimeoutFloor floors the adaptive timeout so one fast sample cannot
	// collapse a destination's deadline below reason. Zero selects 100 ms.
	TimeoutFloor time.Duration
	// Retries is how many times an unanswered probe is re-sent before it
	// resolves as a star. Zero means send once, never re-send.
	Retries int
	// Context, when non-nil, cancels the mux: once it is done every
	// in-flight probe of every worker fails with the context's error, and
	// so does every later exchange. One context.AfterFunc (registered by
	// NewMux, stopped by Close) does it and pops a blocked reader through
	// the waker seam, so it is prompt whatever the read deadline.
	Context context.Context
	// Conn overrides the raw-socket layer — the test seam. Nil dials the
	// platform's real raw sockets (Linux only, needs root/CAP_NET_RAW).
	Conn PacketConn
	// Redial re-opens the socket layer after a fatal receive error. Nil
	// with a nil Conn selects dialRaw; nil with an injected Conn leaves
	// the mux unable to reopen (the first fatal error breaks it), which
	// is what hermetic tests that do not exercise recovery want. It runs
	// on the reader, outside the mux lock.
	Redial func() (PacketConn, error)
	// OnPressure, when set, is invoked (outside the mux lock) every time
	// the degradation level changes — up on detected receive pressure,
	// down as clean read turns accumulate — with a health snapshot. It runs
	// on the reader, between two reads: nothing is read until it returns,
	// it must not call Close, and a panic in it takes only that worker's
	// exchange down. Binaries use it to drive tracer.Pacer.SetRate.
	OnPressure func(tracer.MuxHealth)
	// Sleep replaces time.Sleep for redial backoff; tests inject a no-op.
	Sleep func(time.Duration)
	// Capture, when non-nil, receives every probe any worker's batch
	// injects and every datagram the reader reads — pre-dedup, so
	// duplicates, retransmits, reopen re-sends, and unrelated junk are
	// recorded too (pcap.Capture is the standard sink; it must be safe
	// for concurrent use: one worker's sends overlap the reader's read).
	// While a capture is armed the mux stamps wall-clock times, making the
	// capture's timestamps authoritative for offline replay.
	Capture CaptureSink
}

// Mux is the shared demultiplexer. Create with NewMux, hand each worker a
// Transport (all handles are safe for concurrent use and may also be
// shared), observe with Health, end with Close.
type Mux struct {
	src        netip.Addr
	timeout    time.Duration
	floor      time.Duration
	retries    int
	redial     func() (PacketConn, error)
	onPressure func(tracer.MuxHealth)
	sleepFn    func(time.Duration)
	capture    CaptureSink // immutable after NewMux; the reader calls it without mu
	stopCancel func() bool // detaches the Context's AfterFunc; nil without one

	mu   sync.Mutex
	conn PacketConn // nil only transiently inside reopenLocked
	// reader is the batch whose worker holds the reader role; nil when
	// nobody does, which with batches in flight lasts only from a hand-off
	// to its taker's lock.
	reader *muxBatch
	left   chan struct{} // made by a Close that finds a reader, closed by it on leaving
	// armed is the read deadline the reader is currently blocked on (zero:
	// nobody is in a read); a worker registering an earlier deadline wakes
	// the conn through the waker seam.
	armed time.Time
	// turn counts armed reads; an expiring turn spares the slots sent
	// while its own read was under way (see expireLocked).
	turn   uint64
	closed bool
	broken error // terminal failure: reopen budget exhausted, or Context done

	byKey   map[flowkey.Key]keyQueue
	batches map[*muxBatch]struct{}
	est     map[[4]byte]*rttEstimator

	degrade        int
	cleanTurns     int
	lagStreak      int
	incidentStreak int

	inFlight       int
	inFlightPeak   int
	reopens        int
	pressureEvents int
	kdrops         uint64

	send   []Datagram // send scratch, guarded by mu
	resend []slotRef  // expiry and reopen re-send scratch, guarded by mu
	recv   []Datagram // receive scratch, owned by the reader role
}

// slotRef names one in-flight probe: batch identity plus slot index.
type slotRef struct {
	b *muxBatch
	i int
}

// keyQueue is the registration table's entry for one match key: the FIFO
// of unresolved probes registered under it, oldest first, the first inline
// and more only when probes really share a key (tcptraceroute's constant
// sequence number). An entry never outlives its last reference.
type keyQueue struct {
	first slotRef
	more  []slotRef
}

// muxBatch is one worker's ExchangeBatch call in flight. Its handle
// recycles it from call to call (slots, send references, wake channel).
type muxBatch struct {
	slots      []muxSlot
	refs       []slotRef // the registered slots, for the initial send
	out        []tracer.ProbeResult
	unresolved int
	// wake (capacity 1) is where the worker sleeps while another reads: a
	// token arrives when the batch completes or the role is offered.
	// Tokens can be stale; the worker re-checks under mu.
	wake chan struct{}
}

func (b *muxBatch) wakeWorker() {
	select {
	case b.wake <- struct{}{}:
	default: // one pending token is enough
	}
}

// muxSlot is one in-flight probe's wheel entry (the mux-side slot).
type muxSlot struct {
	probe            []byte
	dst              [4]byte
	quoted, terminal flowkey.Key
	// inQuoted and inTerminal say which of the slot's keys still hold a
	// table reference to it, so resolving it removes exactly what is left.
	inQuoted, inTerminal bool
	est                  *rttEstimator // the destination's, cached; nil until one exists
	turn                 uint64        // Mux.turn when the probe was last sent
	sentAt               time.Time
	deadline             time.Time
	attempts             int
	sendDefers           int
	// noSample suppresses the RTT sample per Karn's rule: set on every
	// retransmission and on reopen re-sends (an answer may belong to any
	// copy of the probe).
	noSample bool
	resolved bool
	err      error
}

// errMuxClosed fails exchanges against a closed mux; errAbandoned marks the
// probes of an exchange a panic unwound through.
var (
	errMuxClosed = errors.New("live: mux closed")
	errAbandoned = errors.New("live: exchange abandoned by a panic")
)

// Pressure- and recovery-tuning constants. The degrade shift widens
// adaptive timeouts by up to 1<<maxDegradeShift (still capped at Timeout);
// lagPressureStreak consecutive full receive sweeps count as pressure even
// without kernel drop counts; degradeDecayTurns clean read turns step the
// degradation back down one level. maxReopens bounds both the redial
// attempts within one recovery incident and the consecutive incidents
// tolerated without a single successful read in between. mtu sizes the
// receive buffers.
const (
	maxDegradeShift   = 3
	lagPressureStreak = 4
	degradeDecayTurns = 64
	reopenBackoffBase = 100 * time.Millisecond
	maxReopens        = 3
	mtu               = 1500
)

// NewMux opens a shared demultiplexer. It starts no goroutine: the workers
// that exchange through it do all of its work.
func NewMux(cfg MuxConfig) (*Mux, error) {
	if !cfg.Source.Is4() {
		return nil, fmt.Errorf("live: need an IPv4 source address, got %v", cfg.Source)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.TimeoutFloor <= 0 {
		cfg.TimeoutFloor = 100 * time.Millisecond
	}
	if cfg.TimeoutFloor > cfg.Timeout {
		cfg.TimeoutFloor = cfg.Timeout
	}
	conn, redial := cfg.Conn, cfg.Redial
	if conn == nil {
		if redial == nil {
			redial = dialRaw
		}
		var err error
		if conn, err = redial(); err != nil {
			return nil, err
		}
	}
	if redial == nil {
		redial = func() (PacketConn, error) {
			return nil, errors.New("live: no Redial configured")
		}
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	m := &Mux{
		src:        cfg.Source,
		timeout:    cfg.Timeout,
		floor:      cfg.TimeoutFloor,
		retries:    cfg.Retries,
		redial:     redial,
		onPressure: cfg.OnPressure,
		sleepFn:    sleep,
		capture:    cfg.Capture,
		conn:       conn,
		byKey:      make(map[flowkey.Key]keyQueue),
		batches:    make(map[*muxBatch]struct{}),
		est:        make(map[[4]byte]*rttEstimator),
		recv:       make([]Datagram, 64),
	}
	for i := range m.recv {
		m.recv[i].Buf = make([]byte, mtu)
	}
	if ctx := cfg.Context; ctx != nil {
		m.stopCancel = context.AfterFunc(ctx, func() { m.cancel(ctx.Err()) })
	}
	return m, nil
}

// Source returns the configured local address.
func (m *Mux) Source() netip.Addr { return m.src }

// Close fails every in-flight probe and releases the sockets. It returns
// after the worker holding the reader role, if any, has left the conn, so
// a closed mux leaks nothing. Safe to call more than once.
func (m *Mux) Close() error {
	m.mu.Lock()
	var conn PacketConn
	if !m.closed {
		m.closed = true
		m.failAllLocked(errMuxClosed)
		conn, m.conn = m.conn, nil
		if m.stopCancel != nil {
			m.stopCancel()
		}
	}
	if m.reader != nil && m.left == nil {
		m.left = make(chan struct{})
	}
	left := m.left
	m.mu.Unlock()
	var err error
	if conn != nil {
		// A reader blocked in the conn's read won't notice a concurrent
		// close of the descriptors it is polling; pop it out first.
		wakeConn(conn)
		err = conn.Close()
	}
	if left != nil {
		<-left
	}
	return err
}

// cancel is the Context's AfterFunc: everything in flight and every later
// exchange fails with err, and a blocked reader is popped out to see it.
func (m *Mux) cancel(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.broken = err
		m.failAllLocked(err)
		wakeConn(m.conn)
	}
}

// wakeConn pops a blocked ReadBatch out of a conn that has the waker seam.
// Wake never blocks, so holding mu across it is fine.
func wakeConn(conn PacketConn) {
	if w, ok := conn.(waker); ok {
		w.Wake()
	}
}

// Transport returns a tracer.Transport / tracer.BatchTransport /
// tracer.FallibleTransport handle over the mux. Handles are safe for
// concurrent use; a campaign may give every worker its own or share one.
// A worker with a handle of its own exchanges without allocating.
func (m *Mux) Transport() *MuxTransport { return &MuxTransport{m: m} }

// MuxTransport is a worker's handle on a shared Mux.
type MuxTransport struct {
	m *Mux
	// spare is the recycled batch; of concurrent callers the loser of the
	// swap allocates one of its own.
	spare atomic.Pointer[muxBatch]
}

// Source implements tracer.Transport.
func (t *MuxTransport) Source() netip.Addr { return t.m.src }

// Exchange implements tracer.Transport: a batch of one. Per-probe faults
// degrade to stars; use ExchangeErr to observe them.
func (t *MuxTransport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp, rtt, ok, _ := t.ExchangeErr(probe)
	return resp, rtt, ok
}

// ExchangeErr implements tracer.FallibleTransport.
func (t *MuxTransport) ExchangeErr(probe []byte) ([]byte, time.Duration, bool, error) {
	probes := [1][]byte{probe}
	var out [1]tracer.ProbeResult
	t.ExchangeBatch(probes[:], out[:])
	if out[0].Err != nil {
		return nil, 0, false, out[0].Err
	}
	if !out[0].OK {
		return nil, 0, false, nil
	}
	return out[0].Resp, out[0].RTT, true, nil
}

// ExchangeBatch implements tracer.BatchTransport. Concurrent calls, on one
// handle or many, interleave freely: the mux attributes every response by
// flow identifier across all in-flight batches. out[i].Resp is refilled with
// append-truncate, so callers recycling one result slice across batches
// (tracer.Scratch) amortize the response buffers exactly as they do against
// the simulator.
func (t *MuxTransport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	if len(out) < len(probes) {
		panic("live: ExchangeBatch result slice shorter than probe slice")
	}
	if len(probes) == 0 {
		return
	}
	b := t.spare.Swap(nil)
	if b == nil {
		b = &muxBatch{wake: make(chan struct{}, 1)}
	}
	if cap(b.slots) < len(probes) {
		b.slots = make([]muxSlot, len(probes))
	}
	b.slots, b.out = b.slots[:len(probes)], out
	t.m.exchange(b, probes)
	// Slots go back zeroed, holding none of the caller's buffers.
	clear(b.slots)
	b.out = nil
	t.spare.Store(b)
}

// Health snapshots the mux's robustness counters.
func (m *Mux) Health() tracer.MuxHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthLocked()
}

func (m *Mux) healthLocked() tracer.MuxHealth {
	h := tracer.MuxHealth{
		InFlight:       m.inFlight,
		InFlightPeak:   m.inFlightPeak,
		KernelDrops:    m.kdrops,
		Reopens:        m.reopens,
		PressureEvents: m.pressureEvents,
		DegradeShift:   m.degrade,
		Destinations:   len(m.est),
	}
	var sum int64
	for _, e := range m.est {
		r := int64(m.rtoLocked(e))
		sum += r
		if h.RTOMinNs == 0 || r < h.RTOMinNs {
			h.RTOMinNs = r
		}
		if r > h.RTOMaxNs {
			h.RTOMaxNs = r
		}
	}
	if n := len(m.est); n > 0 {
		h.RTOMeanNs = sum / int64(n)
	}
	return h
}

// exchange registers b (zeroed slots, one per probe) in the mux-global
// table, performs the initial send, and returns once every probe is
// resolved: by this worker turning the wheel itself whenever nobody else
// is, by the reader of the moment otherwise, or by Close or cancellation.
func (m *Mux) exchange(b *muxBatch, probes [][]byte) {
	out := b.out
	m.mu.Lock()
	defer m.mu.Unlock()
	if ferr := m.fatalLocked(); ferr != nil {
		for i := range probes {
			resetResult(&out[i])
			out[i].Err = ferr
		}
		return
	}
	b.refs = b.refs[:0]
	var last *muxSlot // the slot registered before this one
	for i, p := range probes {
		resetResult(&out[i])
		s := &b.slots[i]
		s.probe = p
		var ok bool
		if s.quoted, s.terminal, s.inTerminal, ok = flowkey.ProbeKeys(p); !ok {
			s.resolved = true // unparseable: an immediate star
			continue
		}
		s.dst = s.quoted.Dst
		// One estimator lookup per run of equal destinations: a ladder.
		if last != nil && last.dst == s.dst {
			s.est = last.est
		} else {
			s.est = m.est[s.dst]
		}
		last = s
		ref := slotRef{b, i}
		s.inQuoted = true
		m.addRefLocked(s.quoted, ref)
		if s.inTerminal {
			m.addRefLocked(s.terminal, ref)
		}
		b.refs = append(b.refs, ref)
	}
	if b.unresolved = len(b.refs); b.unresolved == 0 {
		return
	}
	m.batches[b] = struct{}{}
	m.inFlight += b.unresolved
	if m.inFlight > m.inFlightPeak {
		m.inFlightPeak = m.inFlight
	}
	m.sendRefsLocked(m.now(), b.refs, false)
	// A reader blocked in a read armed at a later deadline than this
	// batch's earliest must re-arm: nudge the conn.
	if !m.armed.IsZero() && m.batchEarliestLocked(b).Before(m.armed) {
		wakeConn(m.conn)
	}
	for b.unresolved > 0 {
		if m.reader == nil {
			m.readLocked(b)
			continue
		}
		m.mu.Unlock()
		<-b.wake
		m.mu.Lock()
	}
}

// readLocked takes the reader role for b's worker and turns the wheel until
// b is resolved — by a turn, or by Close or cancellation failing every
// batch — then releases the role.
func (m *Mux) readLocked(b *muxBatch) {
	m.reader = b
	defer m.releaseLocked(b)
	for b.unresolved > 0 {
		m.turnLocked()
	}
}

// releaseLocked gives the reader role up (deferred: no way out of a turn
// can strand it) and offers it to the worker of another batch in flight;
// should a newcomer take it first, the newcomer makes the next offer. Only
// a callback's panic unwinds through here with b unresolved: b is failed,
// so that no table reference outlives the call that owns its buffers.
func (m *Mux) releaseLocked(b *muxBatch) {
	m.reader = nil
	if b.unresolved > 0 {
		m.failLocked(b, errAbandoned)
	}
	for nb := range m.batches {
		nb.wakeWorker()
		break
	}
	if m.left != nil {
		close(m.left)
		m.left = nil
	}
}

// unlocked runs f with mu released and re-takes it even when f panics, so
// whatever unwinds through the reader does so under the lock.
func (m *Mux) unlocked(f func()) {
	m.mu.Unlock()
	defer m.mu.Lock()
	f()
}

// now is the mux's clock. With a capture sink armed it strips the
// monotonic reading, so an RTT (the difference of two of these stamps)
// equals the difference of the corresponding capture timestamps exactly —
// the byte-identity contract replay depends on. Without a capture the
// monotonic clock stays, immune to wall-clock steps.
func (m *Mux) now() time.Time {
	if m.capture == nil {
		return time.Now()
	}
	return time.Now().Round(0)
}

// fatalLocked returns the error new exchanges must fail with, if any.
func (m *Mux) fatalLocked() error {
	if m.closed {
		return errMuxClosed
	}
	return m.broken
}

// resetResult restores a recycled ProbeResult to its pre-exchange state,
// keeping the response buffer for append-truncate reuse.
func resetResult(r *tracer.ProbeResult) {
	r.OK = false
	r.RTT = 0
	r.Err = nil
	if r.Resp != nil {
		r.Resp = r.Resp[:0]
	}
}

// turnLocked is one turn of the wheel, run by the worker holding the reader
// role: read until the earliest wheel deadline, dispatch, expire, recover.
func (m *Mux) turnLocked() {
	dl := m.earliestDeadlineLocked()
	conn := m.conn
	m.armed = dl
	m.turn++
	var (
		n    int
		rerr error
		now  time.Time
	)
	m.unlocked(func() {
		if rerr = conn.SetReadDeadline(dl); rerr == nil {
			n, rerr = conn.ReadBatch(m.recv)
		}
		now = m.now()
		// The tap sees every datagram before demultiplexing, stamped with
		// the same clock reading the RTTs below use. Safe without mu: a
		// probe's outbound record always precedes its response's arrival
		// (sends are recorded before the conn ever sees them), and the
		// sink locks internally.
		if m.capture != nil {
			for i := 0; i < n; i++ {
				m.capture.CaptureInbound(now, m.recv[i].Buf[:m.recv[i].N])
			}
		}
	})
	m.armed = time.Time{}
	if m.closed || m.broken != nil {
		return // everything in flight has been failed already
	}
	if n > 0 {
		m.dispatchLocked(n, now)
		m.incidentStreak = 0
	}
	switch {
	case rerr == nil:
		// Full sweeps back-to-back mean the reader is not keeping up
		// with the receive rate — pressure even without kernel counts.
		if n == len(m.recv) {
			m.lagStreak++
		} else {
			m.lagStreak = 0
		}
	case errors.Is(rerr, ErrTimeout):
		// The conn reports the deadline we set has passed: expire
		// everything due at or before it. Trusting the conn (not the
		// wall clock) is what lets the fake fast-forward the wheel.
		m.lagStreak = 0
		m.incidentStreak = 0
		m.expireLocked(dl, now)
	default:
		m.lagStreak = 0
		m.reopenLocked(fmt.Errorf("live: receive: %w", rerr))
	}
	if m.pressureLocked(conn) && m.onPressure != nil {
		h := m.healthLocked()
		m.unlocked(func() { m.onPressure(h) })
	}
}

// dispatchLocked attributes n received datagrams to their in-flight
// probes across every registered batch.
func (m *Mux) dispatchLocked(n int, now time.Time) {
	for i := 0; i < n; i++ {
		dg := &m.recv[i]
		key, ok := flowkey.RespKey(dg.Buf[:dg.N])
		if !ok {
			continue // unrelated traffic
		}
		ref, ok := m.popLocked(key)
		if !ok {
			continue // duplicate, or someone else's conversation
		}
		s := &ref.b.slots[ref.i]
		out := &ref.b.out[ref.i]
		out.Resp = append(out.Resp[:0], dg.Buf[:dg.N]...)
		out.RTT = now.Sub(s.sentAt)
		out.OK = true
		if s.attempts == 1 && !s.noSample {
			// Karn's rule: only first-transmission responses feed the
			// estimator.
			e := m.estLocked(s)
			if e == nil {
				e = &rttEstimator{}
				m.est[s.dst], s.est = e, e
			}
			e.observe(out.RTT)
		}
		m.resolveLocked(ref)
	}
}

// resolveLocked marks ref's slot resolved, removes what the table still
// holds of it — the race-safe unregister: under mu, so nothing dispatched
// concurrently can resolve against a resolved slot — and completes its
// batch when it was the last one, waking the batch's worker unless that is
// the reader itself. The slot's result fields are the caller's business.
func (m *Mux) resolveLocked(ref slotRef) {
	b := ref.b
	s := &b.slots[ref.i]
	s.resolved = true
	if s.inQuoted {
		s.inQuoted = false
		m.dropRefLocked(s.quoted, ref)
	}
	if s.inTerminal {
		s.inTerminal = false
		m.dropRefLocked(s.terminal, ref)
	}
	b.unresolved--
	m.inFlight--
	if b.unresolved == 0 {
		delete(m.batches, b)
		if b != m.reader {
			b.wakeWorker()
		}
	}
}

// addRefLocked appends ref to k's FIFO.
func (m *Mux) addRefLocked(k flowkey.Key, ref slotRef) {
	q, shared := m.byKey[k]
	if !shared {
		m.byKey[k] = keyQueue{first: ref}
		return
	}
	q.more = append(q.more, ref)
	m.byKey[k] = q
}

// shiftLocked removes the head of k's FIFO q, deleting the entry it
// empties.
func (m *Mux) shiftLocked(k flowkey.Key, q keyQueue) {
	if len(q.more) == 0 {
		delete(m.byKey, k)
		return
	}
	q.first = q.more[0]
	q.more = q.more[:copy(q.more, q.more[1:])]
	m.byKey[k] = q
}

// dropRefLocked removes ref from k's FIFO, wherever in it ref stands.
func (m *Mux) dropRefLocked(k flowkey.Key, ref slotRef) {
	q := m.byKey[k]
	if q.first == ref {
		m.shiftLocked(k, q)
		return
	}
	for j := range q.more {
		if q.more[j] == ref {
			q.more = append(q.more[:j], q.more[j+1:]...)
			m.byKey[k] = q
			return
		}
	}
}

// popLocked resolves key to the oldest unanswered probe registered under
// it, consuming the reference: the FIFO rule spans every batch in flight.
func (m *Mux) popLocked(key flowkey.Key) (slotRef, bool) {
	q, ok := m.byKey[key]
	if !ok {
		return slotRef{}, false
	}
	ref := q.first
	m.shiftLocked(key, q)
	if s := &ref.b.slots[ref.i]; key == s.quoted {
		s.inQuoted = false
	} else {
		s.inTerminal = false
	}
	return ref, true
}

// earliestDeadlineLocked returns the soonest deadline among every
// in-flight probe of every batch.
func (m *Mux) earliestDeadlineLocked() time.Time {
	var dl time.Time
	for b := range m.batches {
		if bdl := m.batchEarliestLocked(b); dl.IsZero() || bdl.Before(dl) {
			dl = bdl
		}
	}
	return dl
}

// batchEarliestLocked returns b's soonest unresolved deadline; b has one.
func (m *Mux) batchEarliestLocked(b *muxBatch) time.Time {
	var dl time.Time
	for i := range b.slots {
		s := &b.slots[i]
		if s.resolved {
			continue
		}
		if dl.IsZero() || s.deadline.Before(dl) {
			dl = s.deadline
		}
	}
	return dl
}

// expireLocked advances the wheel past dl, the deadline of the turn whose
// read just timed out: probes due at or before it resolve with their
// pending fatal error, star when out of attempts, and are re-sent otherwise
// with their next adaptive-backoff deadline. Probes sent during that very
// turn wait for the next: the read began before they went out, so its
// timeout says nothing about their answers.
func (m *Mux) expireLocked(dl, now time.Time) {
	m.resend = m.resend[:0]
	for b := range m.batches {
		for i := range b.slots {
			s := &b.slots[i]
			if s.resolved || s.deadline.After(dl) || s.turn == m.turn {
				continue
			}
			switch {
			case s.err != nil:
				b.out[i].Err = s.err
				m.resolveLocked(slotRef{b, i})
			case s.attempts > m.retries:
				m.resolveLocked(slotRef{b, i}) // a star: OK stays false
			default:
				m.resend = append(m.resend, slotRef{b, i})
			}
		}
	}
	if len(m.resend) > 0 {
		m.sendRefsLocked(now, m.resend, false)
	}
}

// sendRefsLocked sends every referenced slot in one WriteBatch and stamps
// the outcomes. Send failures are classified: a transient syscall (full
// buffer, interrupted call) leaves the unsent tail due immediately without
// consuming an attempt, bounded by maxSendDefers; any other error fails those
// probes outright. Either way the wheel observes the outcome on its next
// turn. With reopen set, slots already attempted are re-sent
// without charging their attempt budget (the socket died under them, the
// probe is preserved, not penalized) and with RTT sampling suppressed.
func (m *Mux) sendRefsLocked(now time.Time, refs []slotRef, reopen bool) {
	if m.conn == nil {
		// Mid-reopen (only reachable from a registering worker during the
		// redial window): leave the slots due immediately; the recovery
		// path re-sends everything unresolved once the new conn is up.
		for _, ref := range refs {
			ref.b.slots[ref.i].deadline = now
		}
		return
	}
	m.send = m.send[:0]
	for _, ref := range refs {
		s := &ref.b.slots[ref.i]
		m.send = append(m.send, Datagram{Buf: s.probe, Dst: s.dst})
	}
	// Record before the write, not after: the conn may deliver a response
	// (and the reader capture it) the instant WriteBatch enqueues the
	// probe, and the capture must never show an answer preceding its
	// probe. The cost is that a send the kernel rejects is still
	// recorded; replay folds the unanswered occurrence into the eventual
	// re-send or serves it as a star.
	if m.capture != nil {
		for _, dg := range m.send {
			m.capture.CaptureOutbound(now, dg.Buf)
		}
	}
	sent, err := m.conn.WriteBatch(m.send)
	for k, ref := range refs {
		s := &ref.b.slots[ref.i]
		switch {
		case k < sent:
			s.sentAt = now
			s.turn = m.turn
			if reopen && s.attempts > 0 {
				s.noSample = true
			} else {
				s.attempts++
				if s.attempts > 1 {
					s.noSample = true
				}
			}
			a := s.attempts
			if a < 1 {
				a = 1
			}
			s.deadline = now.Add(m.backoffRTOLocked(s, a))
			s.sendDefers = 0
		case err != nil && transientSendErr(err) && s.sendDefers < maxSendDefers:
			// The kernel will drain its buffers: re-offer the probe on the
			// next wheel turn at no attempt cost.
			s.sendDefers++
			s.deadline = now
		case err != nil && !transientSendErr(err):
			// Nothing will ever send this probe: fail it outright. The
			// wheel resolves it with this error on its next turn.
			s.err = fmt.Errorf("live: send: %w", err)
			s.deadline = now
		default:
			// Never made it onto the wire: burn the attempt with an
			// already-expired deadline so the wheel retries or stars it.
			s.deadline = now
			s.attempts++
		}
	}
}

// maxSendDefers bounds how many times a transient syscall failure may
// postpone one probe's send before the failure starts burning attempts.
const maxSendDefers = 3

// transientSendErr reports whether a WriteBatch failure is worth re-trying
// without charging the probe's attempt budget.
func transientSendErr(err error) bool {
	return errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EINTR)
}

// estLocked is s's destination's estimator, nil while it has none; a slot
// registered before the first sample finds it as soon as there is one.
func (m *Mux) estLocked(s *muxSlot) *rttEstimator {
	if s.est == nil {
		s.est = m.est[s.dst]
	}
	return s.est
}

// rtoLocked is the current adaptive timeout of a destination whose
// estimator is e (nil: none yet): the RFC 6298 RTO clamped into [floor,
// Timeout], widened by the degradation shift (re-capped), falling back to
// the Timeout cap before any sample exists.
func (m *Mux) rtoLocked(e *rttEstimator) time.Duration {
	r := e.rto(m.floor, m.timeout)
	if m.degrade > 0 {
		r <<= m.degrade
		if r > m.timeout {
			r = m.timeout
		}
	}
	return r
}

// backoffRTOLocked is s's deadline spacing for send attempt a (1-based):
// the adaptive RTO doubled per retransmission, re-clamped at the cap.
func (m *Mux) backoffRTOLocked(s *muxSlot, a int) time.Duration {
	r := m.rtoLocked(m.estLocked(s)) << (a - 1)
	if r <= 0 || r > m.timeout {
		r = m.timeout
	}
	return r
}

// pressureLocked runs the receive-pressure detector after one read turn
// and reports whether the degradation level changed.
func (m *Mux) pressureLocked(conn PacketConn) bool {
	event := false
	if dc, ok := conn.(dropCounter); ok {
		if d := dc.KernelDrops(); d > m.kdrops {
			m.kdrops = d
			event = true
		}
	}
	if m.lagStreak >= lagPressureStreak {
		m.lagStreak = 0
		event = true
	}
	if event {
		m.pressureEvents++
		m.cleanTurns = 0
		if m.degrade < maxDegradeShift {
			m.degrade++
			return true
		}
		return false
	}
	m.cleanTurns++
	if m.cleanTurns >= degradeDecayTurns {
		m.cleanTurns = 0
		if m.degrade > 0 {
			m.degrade--
			return true
		}
	}
	return false
}

// reopenLocked is the supervised socket-recovery path, run by the reader
// (which keeps the role throughout, so probes registered meanwhile ride the
// re-send) on a fatal receive error: close the broken conn, redial with
// bounded backed-off retries, and re-send every in-flight probe on the new
// conn. Exhaustion — of redials within the incident, or of consecutive
// incidents without one successful read between them — fails all in-flight
// probes with the fatal error and marks the mux broken.
func (m *Mux) reopenLocked(cause error) {
	m.incidentStreak++
	if old := m.conn; old != nil {
		m.conn = nil
		old.Close()
	}
	if m.incidentStreak > maxReopens {
		m.broken = fmt.Errorf("live: %d consecutive socket failures: %w", m.incidentStreak, cause)
		m.failAllLocked(m.broken)
		return
	}
	for attempt := 1; attempt <= maxReopens; attempt++ {
		var (
			c   PacketConn
			err error
		)
		m.unlocked(func() { c, err = m.redial() })
		if m.closed || m.broken != nil {
			if err == nil {
				c.Close()
			}
			return
		}
		if err == nil {
			m.conn = c
			m.reopens++
			m.resendAllLocked(m.now())
			return
		}
		if attempt == maxReopens {
			m.broken = fmt.Errorf("live: socket reopen failed after %d attempts (%v): %w", attempt, err, cause)
			m.failAllLocked(m.broken)
			return
		}
		d := reopenBackoffBase << (attempt - 1)
		if d > m.timeout {
			d = m.timeout
		}
		m.unlocked(func() { m.sleepFn(d) })
		if m.closed || m.broken != nil {
			return
		}
	}
}

// resendAllLocked re-sends every unresolved in-flight probe — the
// in-flight-preservation half of the recovery contract. Probes that had
// hit a fatal send error on the dead conn get a clean slate: the error
// belonged to the old socket.
func (m *Mux) resendAllLocked(now time.Time) {
	m.resend = m.resend[:0]
	for b := range m.batches {
		for i := range b.slots {
			s := &b.slots[i]
			if s.resolved {
				continue
			}
			s.err = nil
			s.sendDefers = 0
			m.resend = append(m.resend, slotRef{b, i})
		}
	}
	if len(m.resend) > 0 {
		m.sendRefsLocked(now, m.resend, true)
	}
}

// failAllLocked resolves every in-flight probe of every batch with err and
// completes the batches.
func (m *Mux) failAllLocked(err error) {
	for b := range m.batches {
		m.failLocked(b, err)
	}
}

// failLocked resolves b's unresolved probes with err, completing it.
func (m *Mux) failLocked(b *muxBatch, err error) {
	for i := range b.slots {
		if !b.slots[i].resolved {
			b.out[i].Err = err
			m.resolveLocked(slotRef{b, i})
		}
	}
}
