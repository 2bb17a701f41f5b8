// Package replay re-serves a captured campaign's traffic as a
// tracer.Transport: probes are answered from a pcap file instead of the
// network, so a live (or simulated) study re-runs offline — no sockets, no
// privileges, no re-probing anyone — and, when the replayed campaign is
// configured identically to the captured one, reproduces its routes and
// statistics byte for byte.
//
// # How a capture becomes a transport
//
// A capture (written by the live layer's pcap tap) is a single
// LINKTYPE_RAW stream holding both directions. Open reads the file once;
// the records are slices of that one buffer, and loading is one pass over
// them in which each packet's IPv4 header is parsed once and nothing is
// copied: the exchanges the Transport serves point into the buffer, which
// it keeps and never writes to (see docs/replay.md, "Loading").
//
// Loading classifies each record structurally: a packet is outbound iff
// its source address is the capture's source AND it is probe-shaped — a
// UDP datagram, an ICMP Echo Request, or a TCP segment with SYN set and
// ACK/RST clear; every response shape the tracer knows (ICMP errors, Echo
// Replies, TCP RST/SYN-ACK) fails that test, so the split is exact for
// every capture the fake conn generates and for UDP campaigns on real
// sockets. (The one ambiguity: hosts whose raw sockets deliver their own
// outbound ICMP/TCP probes back — loopback captures of echo or SYN
// disciplines — record each probe twice; see docs/replay.md.)
//
// One table, keyed by the flow keys the live mux registers probes under
// (internal/tracer/flowkey), drives both loading and serving. A quoted key
// — the identifier an ICMP error quotes back, exact per probe — maps to
// that flow's exchanges, chained in capture order: serving pops the chain's
// head. A terminal key (echo id+seq, TCP ports+ack), which deliberately
// omits the destination and so can span flows, maps to a registration FIFO
// that exists only while loading. Once loaded, the table and the exchanges
// never change: serving takes no lock, and its only per-probe write is the
// flow's head, popped by compare-and-swap so that racing pops serve each
// exchange exactly once.
//
// Consecutive identical outbound occurrences of one quoted key fold into a
// single exchange while the transmission count stays within the captured
// campaign's retry budget (Config.Retries): that is precisely a
// retransmit, and like the live wheel, replay charges the response's RTT
// against the latest transmission (Karn's rule sees the same samples).
// One more identical occurrence than the budget allows is the next
// round's probe: the open exchange closes as a star and a new one begins
// — valid because each destination is probed by one worker, sequentially.
// At any moment, then, only the latest exchange of a quoted key can be
// awaiting its response.
//
// Responses bind to the oldest unanswered exchange under their key — the
// same attribution the live mux makes, including the oldest-unanswered
// FIFO rule for tcptraceroute's constant-sequence probes. Unbindable
// records count as junk, exactly as the live demultiplexer discarded them.
//
// # The virtual clock
//
// Replay never sleeps. A captured star (an exchange with no bound
// response) is served as an immediate ok=false, and RTTs are differences
// of capture timestamps — the live layer stamps captures with the same
// clock readings its own RTTs use, so a replayed RTT equals the original
// to the nanosecond. Timeouts therefore "elapse" instantly: a full
// campaign that took minutes of wall-clock waiting replays in
// milliseconds with identical statistics.
//
// # Divergence is loud
//
// Exchange requests are matched strictly: a probe whose flow key has no
// remaining captured exchange, or whose bytes differ from the captured
// probe, fails with a fatal (non-transient) error naming the flow — the
// replayed campaign was configured differently from the captured one
// (destinations, rounds, port seed, method, retry budget), and silently
// serving wrong traffic would corrupt the study. Leftover reports
// captured exchanges the replayed run never consumed, the other half of
// the same check.
package replay

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/tracer"
	"repro/internal/tracer/flowkey"
)

// Config parameterizes how a capture is reconstructed.
type Config struct {
	// Retries is the captured campaign's per-probe re-send budget
	// (live.MuxConfig.Retries at capture time): up to
	// 1+Retries consecutive identical occurrences of one flow key fold
	// into a single exchange as retransmissions. Zero means every
	// occurrence is its own exchange.
	Retries int
	// Timeout is the captured campaign's probe timeout: a response
	// arriving more than Timeout after its probe's latest transmission is
	// junk (the live wheel had already expired the probe). Zero selects
	// 2s, the live default. Adaptive per-destination timeouts below the
	// cap are not reconstructed; a response beating Timeout but not the
	// original adaptive deadline replays as answered.
	Timeout time.Duration
}

// exchange is one reconstructed probe conversation: 1+ transmissions of
// identical probe bytes, and at most one bound response. probe and resp are
// slices of the capture's records, not copies.
type exchange struct {
	probe []byte
	resp  []byte // nil: a star
	rtt   time.Duration
	next  int32 // the following exchange on the same quoted key; -1: none
}

// Exchanges are allocated in slabs of slabSize (the last one only as long
// as the records left could fill) and named by their index in capture
// order: an int32 where a pointer would be, and no per-exchange allocation.
const (
	slabBits = 12
	slabSize = 1 << slabBits
)

// Transport serves a loaded capture. It implements tracer.Transport,
// tracer.BatchTransport, and tracer.FallibleTransport, and is safe for
// concurrent use by campaign workers: flow keys embed the destination, and
// each destination's exchanges are served in capture order regardless of
// how traces interleave across workers. Serving takes no lock: once
// FromRecords returns only the flows' heads and the served count change,
// and a head is popped by compare-and-swap, so racing pops serve each
// exchange once.
//
// A Transport keeps the records it was loaded from — the probes it checks
// requests against and the responses it returns are their bytes — and
// treats them as read-only; so must its callers.
type Transport struct {
	// Immutable once FromRecords returns. flows is the one key table. A
	// quoted key maps to its flow's slot in heads; a terminal key (used
	// only while loading) to its slot in loader.fifos. Key.Kind keeps the
	// two namespaces apart.
	src   netip.Addr
	flows map[flowkey.Key]int32
	slabs [][]exchange
	total int // exchanges reconstructed
	junk  int // records bound to no exchange at load time
	dests []netip.Addr

	heads  []atomic.Int32 // per quoted flow: the next exchange to serve; -1: exhausted
	served atomic.Int64
}

func (t *Transport) exchange(i int32) *exchange {
	return &t.slabs[i>>slabBits][i&(slabSize-1)]
}

// Open loads the pcap capture at path: one read of the file (see
// pcap.ReadFile), one pass over its records (see FromRecords). Errors name
// the file, and for a torn file how many complete records precede the tear.
func Open(path string, cfg Config) (*Transport, error) {
	recs, err := pcap.ReadFile(path)
	if errors.Is(err, pcap.ErrTruncated) {
		return nil, fmt.Errorf("%w (%d complete records precede the tear)", err, len(recs))
	}
	if err != nil {
		return nil, err
	}
	t, err := FromRecords(recs, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// quotedLoad is a quoted flow's load-time state: its latest exchange and
// that exchange's transmissions. Only the latest exchange of a key can be
// open (unanswered and not yet superseded) — opening the next one closes it
// as a star — so this is all response binding and retransmit folding need.
type quotedLoad struct {
	tail   int32 // the flow's latest exchange
	tx     int32 // its transmissions so far
	run    int32 // send run of its latest transmission (in-flight horizon)
	lastTS int64 // capture timestamp of its latest transmission, Unix ns
}

// registration is one entry of a terminal key's FIFO: an exchange and the
// quoted flow it belongs to. It is live while the exchange is that flow's
// open one.
type registration struct {
	flow, exch int32
}

// loader is the state that reconstructs a capture and is garbage once
// FromRecords returns: what a Transport retains is the records' bytes, the
// exchanges, the key table and one int32 per quoted flow.
type loader struct {
	t       *Transport
	left    int // records not yet folded: bounds the exchanges still to come
	retries int
	timeout int64            // ns
	quoted  []quotedLoad     // indexed like t.heads
	fifos   [][]registration // per terminal key: registrations, oldest first
	seenDst map[[4]byte]bool

	// Send runs reconstruct the demultiplexer's in-flight horizon. Probe
	// records arrive in contiguous bursts (one WriteBatch each — the live
	// layer captures a batch's datagrams under its lock), and the engine
	// driving a destination sends its next batch only after every probe of
	// the previous one resolved — answered, or expired by the timeout
	// wheel. A response can therefore only answer a probe from the burst
	// in progress when it arrived; anything older the original run had
	// already resolved. Terminal-key binding (echo replies, TCP segments
	// — the keys that deliberately omit the destination address and so
	// span traces) enforces this; quoted keys identify their probe exactly
	// and need no horizon.
	run          int32
	inboundSince bool
}

// FromRecords reconstructs a capture's exchanges from its records. It
// fails on an empty capture or one whose first record is not a probe (a
// capture written by the live tap always begins with a send).
//
// The records are not copied and never written to: the returned Transport
// keeps their Data (for records from pcap.ReadFile or pcap.ReadAll, the one
// buffer they share) for as long as it lives, so the caller must not
// modify those bytes afterwards. The record slice itself is not retained.
func FromRecords(recs []pcap.Record, cfg Config) (*Transport, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("replay: capture holds no records")
	}
	if len(recs) > math.MaxInt32 {
		return nil, fmt.Errorf("replay: capture holds %d records, more than the %d one transport can index", len(recs), math.MaxInt32)
	}
	var h packet.IPv4
	shaped := false
	if payload, err := packet.ParseIPv4Into(recs[0].Data, &h); err == nil {
		_, _, _, shaped = flowkey.ProbeKeysOf(&h, payload)
	}
	if !shaped {
		return nil, fmt.Errorf("replay: capture does not begin with a probe: %s", describe(recs[0].Data))
	}
	l := loader{
		t:            &Transport{src: h.Src, flows: make(map[flowkey.Key]int32)},
		left:         len(recs),
		retries:      cfg.Retries,
		timeout:      int64(cfg.Timeout),
		seenDst:      make(map[[4]byte]bool),
		inboundSince: true, // the first probe record opens run 1
	}
	for _, rec := range recs {
		l.record(rec.TS.UnixNano(), rec.Data)
		l.left--
	}
	return l.t, nil
}

// record folds one captured packet into the reconstruction.
func (l *loader) record(ts int64, pkt []byte) {
	var h packet.IPv4
	payload, err := packet.ParseIPv4Into(pkt, &h)
	if err != nil {
		l.inboundSince = true
		l.t.junk++ // unrelated traffic, exactly as the live layer dropped it
		return
	}
	if h.Src == l.t.src {
		if quoted, terminal, hasTerminal, shaped := flowkey.ProbeKeysOf(&h, payload); shaped {
			if l.inboundSince {
				l.run++
				l.inboundSince = false
			}
			l.probe(ts, pkt, quoted, terminal, hasTerminal)
			return
		}
	}
	// Inbound: attribute by the same rule the live demultiplexer uses.
	l.inboundSince = true
	key, ok := flowkey.RespKeyOf(&h, payload)
	if !ok || !l.response(ts, pkt, key) {
		l.t.junk++ // unrelated, duplicate, late, or someone else's conversation
	}
}

// probe folds one outbound transmission: a retransmission of its flow's
// open exchange, or the start of a new one.
func (l *loader) probe(ts int64, pkt []byte, quoted, terminal flowkey.Key, hasTerminal bool) {
	t := l.t
	flow, known := t.flows[quoted]
	if !known {
		flow = int32(len(t.heads))
		t.flows[quoted] = flow
		t.heads = append(t.heads, atomic.Int32{}) // set below: a new flow's exchange is its head
		l.quoted = append(l.quoted, quotedLoad{tail: -1})
		if !l.seenDst[quoted.Dst] {
			l.seenDst[quoted.Dst] = true
			t.dests = append(t.dests, netip.AddrFrom4(quoted.Dst))
		}
	}
	q := &l.quoted[flow]
	if q.tail >= 0 {
		if e := t.exchange(q.tail); e.resp == nil && int(q.tx) < 1+l.retries && bytes.Equal(e.probe, pkt) {
			// A retransmission: same exchange, later clock, and the
			// exchange rejoins the in-flight horizon.
			q.tx++
			q.lastTS = ts
			q.run = l.run
			return
		}
		// Answered, or the budget is spent (or the bytes changed): this is
		// the next round's probe, and an exchange still open was a star.
	}
	idx := int32(t.total)
	if idx&(slabSize-1) == 0 {
		t.slabs = append(t.slabs, make([]exchange, min(slabSize, l.left)))
	}
	t.total++
	*t.exchange(idx) = exchange{probe: pkt, next: -1}
	if q.tail >= 0 {
		t.exchange(q.tail).next = idx
	} else {
		t.heads[flow].Store(idx)
	}
	*q = quotedLoad{tail: idx, tx: 1, run: l.run, lastTS: ts}
	if hasTerminal {
		slot, known := t.flows[terminal]
		if !known {
			slot = int32(len(l.fifos))
			t.flows[terminal] = slot
			l.fifos = append(l.fifos, nil)
		}
		l.fifos[slot] = append(l.fifos[slot], registration{flow: flow, exch: idx})
	}
}

// response binds one inbound packet to the oldest exchange still open under
// its key and in flight when it arrived, and reports whether there was one.
func (l *loader) response(ts int64, pkt []byte, key flowkey.Key) bool {
	t := l.t
	slot, known := t.flows[key]
	if !known {
		return false
	}
	if key.Kind == flowkey.KindQuoted {
		q := &l.quoted[slot]
		return l.bind(q, t.exchange(q.tail), ts, pkt)
	}
	fifo := l.fifos[slot]
	for i, r := range fifo {
		q := &l.quoted[r.flow]
		e := t.exchange(r.exch)
		if q.tail != r.exch || e.resp != nil {
			continue // superseded or answered: not open
		}
		if q.run != l.run {
			// A terminal key spans traces, but this exchange's burst had
			// fully resolved before the response arrived: the original
			// demultiplexer had already expired it (a star), so it is not
			// in flight to be credited.
			continue
		}
		if !l.bind(q, e, ts, pkt) {
			return false
		}
		l.fifos[slot] = fifo[i:] // consumed prefix never binds again
		return true
	}
	return false
}

// bind credits pkt to e, the latest exchange of q's flow, unless e is
// already answered or the response comes more than the timeout after e's
// latest transmission: the wheel had expired that probe before the response
// arrived, and the original run discarded it.
func (l *loader) bind(q *quotedLoad, e *exchange, ts int64, pkt []byte) bool {
	rtt := ts - q.lastTS
	if e.resp != nil || rtt > l.timeout {
		return false
	}
	e.resp = pkt
	e.rtt = time.Duration(rtt)
	return true
}

// Source implements tracer.Transport: the captured campaign's source
// address, inferred from the first probe.
func (t *Transport) Source() netip.Addr { return t.src }

// Destinations returns the captured probe destinations in first-seen
// order — the -replay flag's fallback when no destination list is given.
func (t *Transport) Destinations() []netip.Addr {
	return append([]netip.Addr(nil), t.dests...)
}

// Exchanges reports how many probe conversations the capture reconstructs.
func (t *Transport) Exchanges() int {
	return t.total
}

// Leftover reports captured exchanges not yet served — nonzero after a
// replayed campaign means it probed less than the captured one did.
func (t *Transport) Leftover() int {
	return t.total - int(t.served.Load())
}

// Junk reports captured records that bound to no exchange at load time:
// unrelated traffic, duplicates, and responses past the timeout — the
// traffic the live demultiplexer also discarded.
func (t *Transport) Junk() int {
	return t.junk
}

// Exchange implements tracer.Transport. Mismatches degrade to stars; use
// ExchangeErr (as the campaign's fault-aware engines do) to observe them.
func (t *Transport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	resp, rtt, ok, _ := t.ExchangeErr(probe)
	return resp, rtt, ok
}

// ExchangeErr implements tracer.FallibleTransport: serve the next captured
// exchange for this probe's flow key. The error is fatal (non-transient)
// by design — a mismatch means the replayed campaign diverged from the
// captured one, and retrying cannot help.
func (t *Transport) ExchangeErr(probe []byte) ([]byte, time.Duration, bool, error) {
	resp, rtt, ok, err := t.serve(probe)
	if err == nil {
		t.served.Add(1)
	}
	return resp, rtt, ok, err
}

// ExchangeBatch implements tracer.BatchTransport with the append-truncate
// refill contract.
func (t *Transport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	if len(out) < len(probes) {
		panic("replay: ExchangeBatch result slice shorter than probe slice")
	}
	served := 0
	for i, p := range probes {
		out[i].OK = false
		out[i].RTT = 0
		out[i].Err = nil
		if out[i].Resp != nil {
			out[i].Resp = out[i].Resp[:0]
		}
		resp, rtt, ok, err := t.serve(p)
		if err != nil {
			out[i].Err = err
			continue
		}
		served++
		if !ok {
			continue
		}
		out[i].Resp = append(out[i].Resp[:0], resp...)
		out[i].RTT = rtt
		out[i].OK = true
	}
	t.served.Add(int64(served))
}

// serve pops the next captured exchange of probe's flow and checks it
// against probe. The caller counts what it served into t.served.
func (t *Transport) serve(probe []byte) ([]byte, time.Duration, bool, error) {
	quoted, _, _, ok := flowkey.ProbeKeys(probe)
	if !ok {
		return nil, 0, false, fmt.Errorf("replay: unparseable probe (%d bytes)", len(probe))
	}
	h := int32(-1)
	if flow, known := t.flows[quoted]; known {
		// Pop the head. A lost race means another pop took h: retry on
		// the head it left, so each exchange is served exactly once.
		head := &t.heads[flow]
		for h = head.Load(); h >= 0; h = head.Load() {
			if head.CompareAndSwap(h, t.exchange(h).next) {
				break
			}
		}
	}
	if h < 0 {
		return nil, 0, false, fmt.Errorf(
			"replay: probe %s not in capture (flow already exhausted or never probed): the replayed campaign diverges from the captured one",
			describe(probe))
	}
	e := t.exchange(h)
	if !bytes.Equal(e.probe, probe) {
		return nil, 0, false, fmt.Errorf(
			"replay: probe/capture mismatch for %s: captured %s with equal flow key but different bytes",
			describe(probe), describe(e.probe))
	}
	if e.resp == nil {
		// A captured star: the virtual clock elapses the original timeout
		// instantly.
		return nil, 0, false, nil
	}
	return e.resp, e.rtt, true, nil
}

// describe renders a packet's flow for error messages.
func describe(pkt []byte) string {
	var h packet.IPv4
	payload, err := packet.ParseIPv4Into(pkt, &h)
	if err != nil {
		return fmt.Sprintf("<unparseable %d bytes>", len(pkt))
	}
	proto := fmt.Sprintf("proto %d", h.Protocol)
	switch h.Protocol {
	case packet.ProtoUDP:
		proto = "udp"
	case packet.ProtoICMP:
		proto = "icmp"
	case packet.ProtoTCP:
		proto = "tcp"
	}
	extra := ""
	if len(payload) >= 4 && (h.Protocol == packet.ProtoUDP || h.Protocol == packet.ProtoTCP) {
		extra = fmt.Sprintf(" ports %d->%d",
			uint16(payload[0])<<8|uint16(payload[1]),
			uint16(payload[2])<<8|uint16(payload[3]))
	}
	return fmt.Sprintf("%s %v->%v ipid %d ttl %d%s", proto, h.Src, h.Dst, h.ID, h.TTL, extra)
}
