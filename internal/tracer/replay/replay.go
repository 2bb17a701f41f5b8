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
// LINKTYPE_RAW stream holding both directions. Open maps the file read-only
// (on linux and darwin; elsewhere it reads it whole) and loads it in one pass
// over those bytes, in two stages: a goroutine frames each record in place
// (pcap.Scanner), parses its IPv4 header once and derives its flow keys, a
// block of records ahead of the calling goroutine, which folds them into
// exchanges in capture order. Nothing is copied: an exchange is 16 bytes
// naming where its probe and response begin in the file's bytes, which the
// Transport keeps mapped until it is collected and never writes to; their
// lengths and timestamps are read from the pcap record headers in front of
// them when they are served (see docs/replay.md, "Loading").
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
// Records are keyed by the flow keys the live mux registers probes under
// (internal/tracer/flowkey). One table, which loading and serving share,
// maps a quoted key — the identifier an ICMP error quotes back, exact per
// probe — to that flow's exchanges, chained in capture order: serving pops
// the chain's head. A second table, which exists only while loading, maps a
// terminal key (echo id+seq, TCP ports+ack), which deliberately omits the
// destination and so can span flows, to a registration FIFO. Both are
// indexed by a hash of the key, computed by the parse stage, and confirm a
// hit against the full key. Once loaded, the table and the exchanges never
// change: serving takes no lock, and its only per-probe write is the flow's
// head, popped by compare-and-swap so that racing pops serve each exchange
// exactly once.
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
// of capture timestamps, the response's minus its probe's latest
// transmission's, read from their record headers — the live layer stamps
// captures with the same clock readings its own RTTs use, so a replayed
// RTT equals the original to the nanosecond. Timeouts therefore "elapse"
// instantly: a full campaign that took minutes of wall-clock waiting
// replays in milliseconds with identical statistics.
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
	"fmt"
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
// identical probe bytes, and at most one bound response. It names its probe
// (the latest transmission) and its response by where their bytes begin in
// the capture, and reads their lengths and timestamps from the pcap record
// headers in front of those bytes: a response's RTT is its timestamp minus
// the probe's. An offset takes offBits bits, its low 32 in probe or resp and
// the rest in high, so an exchange is 16 bytes with no pointer for the
// collector to scan. No record's bytes begin at offset 0 (the file header
// is there), so a response offset of 0 names none: a star.
type exchange struct {
	probe, resp uint32 // the low 32 bits of each offset
	high        uint32 // the bits above them: probe's in the low highBits bits, resp's in the next highBits
	next        int32  // the following exchange on the same quoted key; -1: none
}

// load refuses a capture longer than 1<<offBits bytes (8 TiB), so every
// offset fits offBits bits.
const (
	offBits  = 43
	highBits = offBits - 32
	highMask = 1<<highBits - 1
)

func (e *exchange) probeAt() int { return int(uint64(e.high&highMask)<<32 | uint64(e.probe)) }
func (e *exchange) respAt() int  { return int(uint64(e.high>>highBits)<<32 | uint64(e.resp)) }

func (e *exchange) setProbe(off int) {
	e.probe, e.high = uint32(off), e.high&^highMask|uint32(uint64(off)>>32)
}

func (e *exchange) setResp(off int) {
	e.resp, e.high = uint32(off), e.high&highMask|uint32(uint64(off)>>32)<<highBits
}

// rec returns the record whose bytes begin at off in t's capture.
func (t *Transport) rec(off int) pcap.Record { return t.f.Record(t.data, off) }

// chunked is an array that grows a chunk of chunkLen elements at a time:
// growing never copies, and no element moves until trim, which load calls
// once the capture is folded. The exchanges and everything kept per flow are
// chunked, and named by their int32 index: an int32 where a pointer would
// be, and no per-element allocation.
type chunked[T any] struct {
	chunks [][]T
	n      int32
}

const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
)

func (c *chunked[T]) at(i int32) *T { return &c.chunks[i>>chunkBits][i&(chunkLen-1)] }

// add appends a zero element and returns its index. bound bounds the
// elements still to come, this one included, and so the length of a new
// chunk: once the parse stage has reached the end of the capture, the last
// chunk is only as long as the records left could fill.
func (c *chunked[T]) add(bound int) int32 {
	i := c.n
	if i&(chunkLen-1) == 0 {
		c.chunks = append(c.chunks, make([]T, min(chunkLen, bound)))
	}
	c.n++
	return i
}

// trim reallocates the last chunk at the length its elements fill. add sizes
// a chunk before the elements that fill it arrive, so until the parse stage
// reaches the end of the capture a new last chunk holds up to chunkLen
// elements, most of which may never be added; untrimmed, what a Transport
// retains would jump by a chunk wherever its flow count crosses a multiple
// of chunkLen. load trims each array a Transport keeps once the capture is
// folded, when no element is referenced.
func (c *chunked[T]) trim() {
	if n := int(c.n) & (chunkLen - 1); n != 0 && n < len(c.chunks[len(c.chunks)-1]) {
		exact := make([]T, n)
		copy(exact, c.chunks[len(c.chunks)-1])
		c.chunks[len(c.chunks)-1] = exact
	}
}

// Transport serves a loaded capture. It implements tracer.Transport and is
// safe for concurrent use by campaign workers: flow keys embed the destination, and
// each destination's exchanges are served in capture order regardless of
// how traces interleave across workers. Serving takes no lock: once Open
// returns only the flows' heads and the served count change, and a head is
// popped by compare-and-swap, so racing pops serve each exchange once.
//
// A Transport keeps the capture it was loaded from — the probes it checks
// requests against and the responses it returns are its bytes, and its
// exchanges name them by span — and treats it as read-only; so must its
// callers. Open's capture is the file mapped read-only, so the file must not
// be truncated or rewritten in place while a Transport maps it: touching a
// page cut from the file raises SIGBUS. Captures this program writes are
// installed by rename (atomicio), which never does that.
type Transport struct {
	// Immutable once Open returns. flows maps each quoted key to its flow,
	// the flow's index in heads.
	data      []byte      // the capture
	f         pcap.Format // its byte order and timestamp resolution
	src       netip.Addr
	flows     table
	exchanges chunked[exchange]
	junk      int // records bound to no exchange at load time
	dests     []netip.Addr

	heads  chunked[atomic.Int32] // per quoted flow: the next exchange to serve; -1: exhausted
	served atomic.Int64
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
	return int(t.exchanges.n)
}

// Leftover reports captured exchanges not yet served — nonzero after a
// replayed campaign means it probed less than the captured one did.
func (t *Transport) Leftover() int {
	return int(t.exchanges.n) - int(t.served.Load())
}

// Junk reports captured records that bound to no exchange at load time:
// unrelated traffic, duplicates, and responses past the timeout — the
// traffic the live demultiplexer also discarded.
func (t *Transport) Junk() int {
	return t.junk
}

// Exchange is tracer.Exchange over t, for bench/.
func (t *Transport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	return tracer.Exchange(t, probe)
}

// ExchangeBatch implements tracer.Transport: each probe is served the next
// captured exchange of its flow key. A probe that does not match it fails
// with a fatal (non-transient) error in its ProbeResult.Err — the replayed
// campaign diverged from the captured one, and retrying cannot help.
func (t *Transport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	if len(out) < len(probes) {
		panic("replay: ExchangeBatch result slice shorter than probe slice")
	}
	served := 0
	for i, p := range probes {
		resp, rtt, ok, err := t.serve(p)
		switch {
		case err != nil:
			out[i].Fail(err)
			continue
		case ok:
			out[i].Answer(resp, rtt)
		default:
			out[i].Star()
		}
		served++
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
	if flow := t.flows.find(&quoted, hashKey(&quoted)); flow >= 0 {
		// Pop the head. A lost race means another pop took h: retry on
		// the head it left, so each exchange is served exactly once.
		head := t.heads.at(flow)
		for h = head.Load(); h >= 0; h = head.Load() {
			if head.CompareAndSwap(h, t.exchanges.at(h).next) {
				break
			}
		}
	}
	if h < 0 {
		return nil, 0, false, fmt.Errorf(
			"replay: probe %s not in capture (flow already exhausted or never probed): the replayed campaign diverges from the captured one",
			describe(probe))
	}
	e := t.exchanges.at(h)
	sent := t.rec(e.probeAt())
	if !bytes.Equal(sent.Data, probe) {
		return nil, 0, false, fmt.Errorf(
			"replay: probe/capture mismatch for %s: captured %s with equal flow key but different bytes",
			describe(probe), describe(sent.Data))
	}
	at := e.respAt()
	if at == 0 {
		// A captured star: the virtual clock elapses the original timeout
		// instantly.
		return nil, 0, false, nil
	}
	resp := t.rec(at)
	return resp.Data, time.Duration(resp.TS - sent.TS), true, nil
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
