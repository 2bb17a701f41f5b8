package replay

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/tracer/flowkey"
)

// Open loads the pcap capture at path: the file is mapped read-only (read
// whole where the build maps nothing), then loaded in one pass over its bytes
// (see load). A refused capture is unmapped before Open returns; a loaded
// one once its Transport is unreachable, which is safe because no slice of
// the mapping outlives a serve call (ProbeResult.Answer copies every
// response). Errors name the file, and for a torn file how many complete
// records precede the tear.
func Open(path string, cfg Config) (*Transport, error) {
	b, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	t, err := load(b, cfg)
	if err != nil {
		unmap(b)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	runtime.AddCleanup(t, unmap, b)
	return t, nil
}

// The parse stage hands the fold records in blocks of blockLen, and runs at
// most blocksAhead blocks ahead of it: the blocks are allocated once per
// load and passed back and forth, so the hand-off costs nothing per record.
const (
	blockLen    = 2048
	blocksAhead = 3
)

// A record's kind, as the parse stage classifies it.
const (
	kindJunk  uint8 = iota // not a probe and answers none: unparseable, or an unrelated packet
	kindProbe              // outbound and probe-shaped
	kindResp               // inbound with a key it may answer under
)

// parsed is one record as the parse stage hands it to the fold: its
// timestamp (Unix ns) and where its bytes begin in the capture; for a probe
// its quoted key and, if hasTerminal, its terminal key; for a response the
// one key it answers under; each key with its hash.
type parsed struct {
	ts          int64
	at          int
	kind        uint8
	hasTerminal bool
	key, term   flowkey.Key
	hash, thash uint64
}

// block is one hand-off from the parse stage to the fold.
type block struct {
	recs []parsed
	last bool // the capture ends with this block
}

// load reconstructs the capture held in b. The Transport keeps b — the
// probes and responses it serves are slices of it — and never writes to it,
// so the caller must not modify b afterwards. load fails on a capture pcap
// cannot frame, one with no records, and one whose first record is not a
// probe (a capture written by the live tap always begins with a send).
//
// It is one pass in two stages. A goroutine, which load starts and joins,
// frames the records, parses each IPv4 header once, classifies the record
// and derives its keys and their hashes (see parser). The calling goroutine
// folds the parsed records in capture order, and does only table work.
func load(b []byte, cfg Config) (*Transport, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	s, err := pcap.NewScanner(b)
	if err != nil {
		return nil, err
	}
	if !s.Next() {
		if err := s.Err(); err != nil {
			return nil, readErr(err, 0)
		}
		return nil, fmt.Errorf("replay: capture holds no records")
	}
	first := s.Record()
	var h packet.IPv4
	shaped := false
	if payload, err := packet.ParseIPv4Into(first.Data, &h); err == nil {
		_, _, _, shaped = flowkey.ProbeKeysOf(&h, payload)
	}
	if !shaped {
		// A torn file is reported as torn, whatever its first record.
		n := 1
		for s.Next() {
			n++
		}
		if err := s.Err(); err != nil {
			return nil, readErr(err, n)
		}
		return nil, fmt.Errorf("replay: capture does not begin with a probe: %s", describe(first.Data))
	}
	// After the 24-byte file header, every record takes a 16-byte record
	// header at least: that bounds the records, and so the exchanges, the
	// int32 indexes must reach. An exchange's offsets must reach every byte.
	most := (len(b) - 24) / 16
	if most > math.MaxInt32 {
		return nil, fmt.Errorf("replay: a capture of %d bytes may hold more records than the %d one transport can index", len(b), math.MaxInt32)
	}
	if uint64(len(b)) > 1<<offBits {
		return nil, fmt.Errorf("replay: a capture of %d bytes is longer than the %d bytes one transport can index", len(b), uint64(1)<<offBits)
	}

	// Both channels hold every block, so no send on either ever blocks: the
	// parse stage waits only for a free block, the fold only for a full one.
	p := &parser{
		s:    s,
		src:  h.Src,
		full: make(chan *block, blocksAhead),
		free: make(chan *block, blocksAhead),
	}
	// A small capture gets blocks no longer than it can fill.
	n := min(blockLen, most)
	backing := make([]parsed, blocksAhead*n)
	for i := range blocksAhead {
		p.free <- &block{recs: backing[i*n : i*n : (i+1)*n]}
	}
	go p.run()

	l := loader{
		t:            &Transport{src: h.Src, data: b, f: s.Format()},
		retries:      cfg.Retries,
		timeout:      int64(cfg.Timeout),
		seenDst:      make(map[[4]byte]bool),
		inboundSince: true, // the first probe record opens run 1
	}
	for blk := range p.full {
		l.left = math.MaxInt
		if blk.last {
			l.left = len(blk.recs)
		}
		for i := range blk.recs {
			l.fold(&blk.recs[i])
			l.left--
		}
		p.free <- blk
	}
	// p.full is closed: run is done with p, and the fold may read it.
	if p.err != nil {
		return nil, readErr(p.err, p.n)
	}
	l.t.flows.keys.trim()
	l.t.exchanges.trim()
	l.t.heads.trim()
	return l.t, nil
}

// readErr completes a framing error: a tear also says how many complete
// records precede it.
func readErr(err error, complete int) error {
	if errors.Is(err, pcap.ErrTruncated) {
		return fmt.Errorf("%w (%d complete records precede the tear)", err, complete)
	}
	return err
}

// parser is the load's first stage. It owns the Scanner and, until it
// closes full, n and err.
type parser struct {
	s          *pcap.Scanner
	src        netip.Addr
	full, free chan *block
	n          int   // records framed
	err        error // what ended the capture early, if anything
}

// run parses the record the Scanner has framed and every record it frames
// after it into the blocks it takes from free, and sends each block on full,
// closing full when the capture ends.
func (p *parser) run() {
	defer close(p.full)
	for more := true; more; {
		blk := <-p.free
		blk.recs = blk.recs[:0]
		for more && len(blk.recs) < cap(blk.recs) {
			blk.recs = blk.recs[:len(blk.recs)+1]
			p.parse(&blk.recs[len(blk.recs)-1], p.s.Record(), p.s.Offset())
			p.n++
			more = p.s.Next()
		}
		blk.last = !more
		p.full <- blk
	}
	p.err = p.s.Err()
}

// parse classifies rec, whose bytes begin at off in the capture, into r: a
// packet is a probe iff it comes from the capture's source and is
// probe-shaped; any other packet is a response if it has a key to answer
// under, and junk if not.
func (p *parser) parse(r *parsed, rec pcap.Record, off int) {
	r.ts, r.at = rec.TS, off
	r.kind = kindJunk
	var h packet.IPv4
	payload, err := packet.ParseIPv4Into(rec.Data, &h)
	if err != nil {
		return
	}
	if h.Src == p.src {
		var shaped bool
		if r.key, r.term, r.hasTerminal, shaped = flowkey.ProbeKeysOf(&h, payload); shaped {
			r.kind = kindProbe
			r.hash = hashKey(&r.key)
			if r.hasTerminal {
				r.thash = hashKey(&r.term)
			}
			return
		}
	}
	var ok bool
	if r.key, ok = flowkey.RespKeyOf(&h, payload); ok {
		r.kind = kindResp
		r.hash = hashKey(&r.key)
	}
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

// loader is the fold's state, garbage once load returns: what a Transport
// retains is the capture's bytes, the exchanges, the quoted key table and
// one int32 per quoted flow.
type loader struct {
	t         *Transport
	left      int // bounds the exchanges still to come
	retries   int
	timeout   int64               // ns
	quoted    chunked[quotedLoad] // indexed like t.heads
	terminals table               // terminal key → its FIFO's index in fifos
	fifos     chunked[[]registration]
	seenDst   map[[4]byte]bool

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

// fold folds one parsed record into the reconstruction.
func (l *loader) fold(r *parsed) {
	switch r.kind {
	case kindProbe:
		if l.inboundSince {
			l.run++
			l.inboundSince = false
		}
		l.probe(r)
	case kindResp:
		// Inbound: attribute by the same rule the live demultiplexer uses.
		l.inboundSince = true
		if !l.response(r) {
			l.t.junk++ // duplicate, late, or someone else's conversation
		}
	default:
		l.inboundSince = true
		l.t.junk++ // unrelated traffic, exactly as the live layer dropped it
	}
}

// probe folds one outbound transmission: a retransmission of its flow's
// open exchange, or the start of a new one.
func (l *loader) probe(r *parsed) {
	t := l.t
	flow, added := t.flows.insert(&r.key, r.hash, l.left)
	if added {
		t.heads.add(l.left) // set below: a new flow's exchange is its head
		*l.quoted.at(l.quoted.add(l.left)) = quotedLoad{tail: -1}
		if !l.seenDst[r.key.Dst] {
			l.seenDst[r.key.Dst] = true
			t.dests = append(t.dests, netip.AddrFrom4(r.key.Dst))
		}
	}
	q := l.quoted.at(flow)
	if q.tail >= 0 {
		if e := t.exchanges.at(q.tail); e.respAt() == 0 && int(q.tx) < 1+l.retries && bytes.Equal(t.rec(e.probeAt()).Data, t.rec(r.at).Data) {
			// A retransmission: same exchange, later clock, and the
			// exchange rejoins the in-flight horizon. The exchange now
			// names this transmission, whose timestamp a served RTT is
			// measured from.
			e.setProbe(r.at)
			q.tx++
			q.lastTS = r.ts
			q.run = l.run
			return
		}
		// Answered, or the budget is spent (or the bytes changed): this is
		// the next round's probe, and an exchange still open was a star.
	}
	idx := t.exchanges.add(l.left)
	e := t.exchanges.at(idx)
	*e = exchange{next: -1}
	e.setProbe(r.at)
	if q.tail >= 0 {
		t.exchanges.at(q.tail).next = idx
	} else {
		t.heads.at(flow).Store(idx)
	}
	*q = quotedLoad{tail: idx, tx: 1, run: l.run, lastTS: r.ts}
	if r.hasTerminal {
		fifo, added := l.terminals.insert(&r.term, r.thash, l.left)
		if added {
			l.fifos.add(l.left)
		}
		regs := l.fifos.at(fifo)
		*regs = append(*regs, registration{flow: flow, exch: idx})
	}
}

// response binds one inbound record to the oldest exchange still open
// under its key and in flight when it arrived, and reports whether there
// was one.
func (l *loader) response(r *parsed) bool {
	t := l.t
	if r.key.Kind == flowkey.KindQuoted {
		flow := t.flows.find(&r.key, r.hash)
		if flow < 0 {
			return false
		}
		q := l.quoted.at(flow)
		return l.bind(q, t.exchanges.at(q.tail), r)
	}
	fifo := l.terminals.find(&r.key, r.hash)
	if fifo < 0 {
		return false
	}
	regs := l.fifos.at(fifo)
	for i, reg := range *regs {
		q := l.quoted.at(reg.flow)
		e := t.exchanges.at(reg.exch)
		if q.tail != reg.exch || e.respAt() != 0 {
			continue // superseded or answered: not open
		}
		if q.run != l.run {
			// A terminal key spans traces, but this exchange's burst had
			// fully resolved before the response arrived: the original
			// demultiplexer had already expired it (a star), so it is not
			// in flight to be credited.
			continue
		}
		if !l.bind(q, e, r) {
			return false
		}
		*regs = (*regs)[i:] // consumed prefix never binds again
		return true
	}
	return false
}

// bind credits the response r to e, the latest exchange of q's flow,
// unless e is already answered or the response comes more than the timeout
// after e's latest transmission: the wheel had expired that probe before
// the response arrived, and the original run discarded it. Serving reads
// the same difference of timestamps, r's minus that transmission's, as the
// exchange's RTT.
func (l *loader) bind(q *quotedLoad, e *exchange, r *parsed) bool {
	if e.respAt() != 0 || r.ts-q.lastTS > l.timeout {
		return false
	}
	e.setResp(r.at)
	return true
}
