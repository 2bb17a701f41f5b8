package measure

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/tracer"
)

// This file lays a checkpoint out in the internal/ckpt wire format: the run
// body (Checkpoint) through ckpt's Encoder and Decoder, and each
// accumulator's body (AccState) straight from and into the accumulator —
// State appends it with ckpt's primitives, and RestoreAccumulator reads it
// back with a ckpt.Decoder. Fields are written in a fixed order:
// every integer a zigzag varint, every list a count followed by its
// elements, per-cause maps as (cause, count) pairs in ascending cause order
// — so equal accumulators give equal bytes, and a restored one writes back
// the body it came from. docs/checkpoint.md has the layout tables; the
// golden file under testdata/ pins it.
//
// A body is encoded in two phases. State appends everything but the hop
// cells to one buffer, the head — integers with encoding/binary's varints,
// which are ckpt's, and booleans and addresses with ckpt's append forms
// (AppendBool, AppendAddr, AppendIPv4) — and notes where each destination's
// cells go. Checkpoint.Encode then streams the head's runs and the noted
// cells through the frame's buffer (ckpt.Encoder.Raw, U64), so the body is
// never one buffer in memory.
//
// The min* constants are the fewest bytes one element of each repeated
// structure can occupy; the decoder checks every count against the bytes
// that remain before allocating (ckpt.Decoder.Len). State allocates its
// head at exactly its length: each *Size function, and routeMemo.size, sits
// beside the append function whose bytes it counts.
const (
	minCause  = 2 // cause, count
	minDest   = 6 // address tag, SawLoop, SawCycle, 3 counts
	minRoute  = 4 // Classic, address tag, Halt, hop count
	cellBytes = 8 // one hop
	minSig    = 3 // address tag, LastRound, Rounds
	addrBytes = 5 // a present IPv4 address: tag and four bytes
)

// uvarintSize is the length of binary.AppendUvarint's encoding of v, and
// varintSize that of binary.AppendVarint's.
func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func varintSize(v int64) int   { return uvarintSize(uint64(v<<1) ^ uint64(v>>63)) }

// Encode appends the run body: a campaign checkpoint is exactly this, the
// daemon's continues with its schedule section. Each shard's accumulator
// body is written length-prefixed, its noted cells streamed in place.
func (ck *Checkpoint) Encode(e *ckpt.Encoder) {
	e.U64(ck.Digest)
	e.Int(int64(ck.NextRound))
	e.Bytes(ck.Transport)
	e.Len(len(ck.Dests))
	for i := range ck.Dests {
		ck.Dests[i].encode(e)
	}
	e.Len(len(ck.Workers))
	for _, st := range ck.Workers {
		st.encode(e)
	}
}

// encode writes the body length-prefixed: the head's runs with the cells
// noted between them, read only now and copied into e's buffer.
func (st AccState) encode(e *ckpt.Encoder) {
	e.Len(st.size())
	from := 0
	for _, c := range st.cells {
		e.Raw(st.head[from:c.at])
		for _, v := range c.cells {
			e.U64(v)
		}
		from = c.at
	}
	e.Raw(st.head[from:])
}

// size is the body's length, its noted cells included.
func (st AccState) size() int {
	n := len(st.head)
	for _, c := range st.cells {
		n += cellBytes * len(c.cells)
	}
	return n
}

// Decode reads one run body written by Encode into ck, which must be zero.
// The worker bodies are sliced out of the data as they are; Restore decodes
// them.
func (ck *Checkpoint) Decode(d *ckpt.Decoder) {
	ck.Digest = d.U64()
	ck.NextRound = int(d.Int())
	ck.Transport = d.Bytes()
	if n := d.Len(minDestRun); n > 0 {
		ck.Dests = make([]DestRun, n)
		for i := range ck.Dests {
			ck.Dests[i].decode(d)
		}
	}
	if n := d.Len(1); n > 0 {
		ck.Workers = make([]AccState, n)
		for w := range ck.Workers {
			ck.Workers[w] = AccState{head: d.Bytes()}
		}
	}
}

// State snapshots the accumulator's partial statistics as its checkpoint
// body. The accumulator must be quiescent (no concurrent Fold or read) while
// State runs, which is when everything that changes in place is encoded
// into the body's head. Each destination's hop cells are only noted:
// Checkpoint.Encode copies them into the file later, which may be after the
// accumulator moves on, because it never rewrites a cell once stored — so a
// caller can release its lock before the bulk of the body is written. The
// body is deterministic — address sets and destinations ascending, each
// destination's routes in first-seen order — so two equal accumulators give
// identical bytes. An IPv6 address has no encoding and fails it.
func (a *Accumulator) State() (AccState, error) {
	scalars := [...]int64{
		int64(a.routes), int64(a.reached), int64(a.responses), int64(a.midStars),
		int64(a.routesWithLoop), int64(a.loopInstances), int64(a.parisOnly),
		int64(a.routesWithCycle), int64(a.cycleInstances),
		int64(a.failed), int64(a.skipped), int64(a.rttSamples),
		a.rttSum, a.rttMin, a.rttMax,
	}
	sets := [...][]netip.Addr{a.addrs.sorted(), a.loopAddrs.sorted(), a.cycleAddrs.sorted(), a.skippedDests.sorted()}
	dests := a.sortedDests()
	size := causesSize(a.loopByCause) + causesSize(a.cycleByCause) + uvarintSize(uint64(len(dests))) + a.memoBytes
	for _, v := range scalars {
		size += varintSize(v)
	}
	for _, s := range sets {
		size += uvarintSize(uint64(len(s))) + addrBytes*len(s)
	}
	most := 0
	for _, ds := range dests {
		n := len(ds.classic) + len(ds.paris)
		most = max(most, n)
		size += addrBytes + 2 + uvarintSize(uint64(n)) + sigsSize(ds.loopSigs) + sigsSize(ds.cycleSigs)
	}
	head := make([]byte, 0, size)
	for _, v := range scalars {
		head = binary.AppendVarint(head, v)
	}
	head = appendCauses(appendCauses(head, a.loopByCause), a.cycleByCause)
	for _, s := range sets {
		head = binary.AppendUvarint(head, uint64(len(s)))
		for _, ad := range s {
			if ad.Is6() {
				return AccState{}, fmt.Errorf("measure: cannot checkpoint address %v: not IPv4", ad)
			}
			head = ckpt.AppendAddr(head, ad)
		}
	}
	head = binary.AppendUvarint(head, uint64(len(dests)))
	// cuts[i] is where destination i's cells go in head, and the cells.
	cuts := make([]cellCut, len(dests))
	order := make([]uint32, most)
	for i, ds := range dests {
		if ds.dest().Is6() {
			return AccState{}, fmt.Errorf("measure: cannot checkpoint destination %v: not IPv4", ds.dest())
		}
		head = appendRoutes(head, ds, order)
		cuts[i] = cellCut{at: len(head), cells: ds.cells}
		head = appendSigs(appendSigs(head, ds.loopSigs), ds.cycleSigs)
	}
	return AccState{head: head, cells: cuts}, nil
}

// cellCut is one destination's hop cells as State found them, and the
// offset in its body where they go.
type cellCut struct {
	at    int
	cells []uint64
}

// appendRoutes appends what precedes one destination's cells: its address
// and flags, and its routes in first-seen order, with order (at least as
// long as the destination has routes) as scratch.
func appendRoutes(b []byte, ds *destState, order []uint32) []byte {
	b = ckpt.AppendAddr(b, ds.dest())
	b = ckpt.AppendBool(ckpt.AppendBool(b, ds.sawLoop), ds.sawCycle)
	nc := len(ds.classic)
	for i := range ds.classic {
		order[ds.classic[i].seq] = uint32(i)
	}
	for i := range ds.paris {
		order[ds.paris[i].seq] = uint32(nc + i)
	}
	b = binary.AppendUvarint(b, uint64(nc+len(ds.paris)))
	for _, k := range order[:nc+len(ds.paris)] {
		classic := int(k) < nc
		var mo *routeMemo
		if classic {
			mo = &ds.classic[k]
		} else {
			mo = &ds.paris[int(k)-nc]
		}
		b = ckpt.AppendBool(b, classic)
		if mo.flags&memoSource != 0 {
			b = ckpt.AppendIPv4(b, addr4(mo.src))
		} else {
			b = ckpt.AppendAddr(b, netip.Addr{})
		}
		b = binary.AppendUvarint(binary.AppendVarint(b, int64(mo.halt)), uint64(mo.hops))
	}
	return b
}

// size is the length of the route header appendRoutes writes for mo.
func (mo *routeMemo) size() int {
	n := 2 + varintSize(int64(mo.halt)) + uvarintSize(uint64(mo.hops))
	if mo.flags&memoSource != 0 {
		n += addrBytes - 1
	}
	return n
}

func appendCauses(b []byte, m map[anomaly.Cause]int) []byte {
	causes := make([]anomaly.Cause, 0, len(m))
	for c := range m {
		causes = append(causes, c)
	}
	slices.Sort(causes)
	b = binary.AppendUvarint(b, uint64(len(causes)))
	for _, c := range causes {
		b = binary.AppendVarint(binary.AppendVarint(b, int64(c)), int64(m[c]))
	}
	return b
}

func causesSize(m map[anomaly.Cause]int) int {
	n := uvarintSize(uint64(len(m)))
	for c, k := range m {
		n += varintSize(int64(c)) + varintSize(int64(k))
	}
	return n
}

func sigsSize(sigs []sigSpan) int {
	n := uvarintSize(uint64(len(sigs)))
	for _, sp := range sigs {
		n += addrBytes + varintSize(int64(sp.lastRound)) + varintSize(int64(sp.rounds))
	}
	return n
}

func appendSigs(b []byte, sigs []sigSpan) []byte {
	b = binary.AppendUvarint(b, uint64(len(sigs)))
	for _, sp := range sigs {
		b = binary.AppendVarint(binary.AppendVarint(ckpt.AppendAddr(b, sp.addr), int64(sp.lastRound)), int64(sp.rounds))
	}
	return b
}

// errCorrupt wraps ckpt.ErrCorrupt for a body no accumulator can have
// written.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("measure: checkpoint %w: "+format, append([]any{ckpt.ErrCorrupt}, args...)...)
}

// RestoreAccumulator rebuilds one accumulator from the body State wrote:
// scalars load directly, and the ascending address sets and destination
// list become the accumulator's sorted views as they are; the memo and graph
// layers are rebuilt by replaying the interned routes, in first-seen order,
// through the same analysis code that built them originally, and the
// diamonds are counted. A body no accumulator can have written — not a
// canonical encoding read to its last byte, a set or list out of strictly
// ascending order, a route no memo holds or one colliding with an earlier
// one, a non-canonical cell, a hop address missing from the address set —
// is refused with ckpt.ErrCorrupt. So is a body State returned that still
// holds noted cells: it is restored once written, as a file holds it.
// Checkpoint.Restore calls it per accumulator.
func RestoreAccumulator(st AccState) (*Accumulator, error) {
	if st.cells != nil {
		return nil, errCorrupt("body with noted cells, not yet written")
	}
	a := NewAccumulator()
	if err := ckpt.DecodeBody(st.head, a.decode); err != nil {
		return nil, err
	}
	a.tallyDirty()
	return a, nil
}

// decode reads a body into a, which must be new. The decoder's errors are
// sticky and turn every later read into a zero value, so each step only has
// to stay in bounds once one has failed.
func (a *Accumulator) decode(d *ckpt.Decoder) {
	for _, p := range [...]*int{
		&a.routes, &a.reached, &a.responses, &a.midStars,
		&a.routesWithLoop, &a.loopInstances, &a.parisOnly,
		&a.routesWithCycle, &a.cycleInstances,
		&a.failed, &a.skipped, &a.rttSamples,
	} {
		*p = int(d.Int())
	}
	a.rttSum, a.rttMin, a.rttMax = d.Int(), d.Int(), d.Int()
	decodeCauses(d, a.loopByCause)
	decodeCauses(d, a.cycleByCause)
	for _, s := range [...]*addrSet{&a.addrs, &a.loopAddrs, &a.cycleAddrs, &a.skippedDests} {
		s.decode(d)
	}
	n := d.Len(minDest)
	if n > 0 {
		a.destView = make([]*destState, 0, n)
	}
	var rt tracer.Route
	var routes []routeHeader
	for range n {
		ds := a.decodeDest(d, &rt, &routes)
		if ds == nil {
			return
		}
		if k := len(a.destView); k > 0 && a.destView[k-1].dest().Compare(ds.dest()) >= 0 {
			d.Fail(errCorrupt("destinations not strictly ascending"))
			return
		}
		a.dests[ds.dest()] = ds
		a.destView = append(a.destView, ds)
		if ds.sawLoop {
			a.destsWithLoop++
		}
		if ds.sawCycle {
			a.destsWithCycle++
		}
		a.loopSigs.addSpans(ds.loopSigs)
		a.cycleSigs.addSpans(ds.cycleSigs)
	}
	// The replay adds every responding hop's address to the set it has
	// read; State only writes sets that hold them all already.
	if len(a.addrs.fresh) > 0 {
		d.Fail(errCorrupt("hop address %v missing from the address set", a.addrs.fresh[0]))
	}
}

// decodeCauses reads a per-cause map into m. Causes out of ascending order
// are refused: they would not encode back to the same bytes.
func decodeCauses(d *ckpt.Decoder, m map[anomaly.Cause]int) {
	n := d.Len(minCause)
	var prev anomaly.Cause
	for i := 0; i < n; i++ {
		c := anomaly.Cause(d.Int())
		if i > 0 && c <= prev {
			d.Fail(errCorrupt("cause %d after cause %d", c, prev))
			return
		}
		m[c], prev = int(d.Int()), c
	}
}

// decode reads a set State wrote, strictly ascending, and adopts it as the
// view.
func (s *addrSet) decode(d *ckpt.Decoder) {
	s.read = true
	if n := d.Len(1); n > 0 {
		s.view = make([]netip.Addr, n)
	}
	for i := range s.view {
		s.view[i] = d.Addr()
		if i > 0 && s.view[i-1].Compare(s.view[i]) >= 0 {
			d.Fail(errCorrupt("address set not strictly ascending"))
			return
		}
		s.has[s.view[i]] = struct{}{}
	}
}

// routeHeader is an interned route as a body lists it: the route-level
// observables of tracer.Route.Equal (the destination is the enclosing one)
// and how many of the destination's cells are its hops.
type routeHeader struct {
	classic bool
	source  netip.Addr
	halt    tracer.HaltReason
	hops    int
}

// decodeDest reads one destination, or returns nil once d has failed: the
// route headers into routes, scratch shared by every destination, then the
// cells, which the destination adopts, and each route materialized from
// them into rt, one reusable route, and interned through analyzeRoute, so
// the memos and graphs are rebuilt by the code that built them.
func (a *Accumulator) decodeDest(d *ckpt.Decoder, rt *tracer.Route, routes *[]routeHeader) *destState {
	ds := newDestState(d.Addr())
	ds.sawLoop, ds.sawCycle = d.Bool(), d.Bool()
	hs, total := (*routes)[:0], 0
	for range d.Len(minRoute) {
		h := routeHeader{classic: d.Bool(), source: d.Addr(), halt: tracer.HaltReason(d.Int()), hops: d.Len(cellBytes)}
		if h.halt < 0 || h.halt > tracer.HaltMaxTTL || h.hops > maxRouteHops {
			d.Fail(errCorrupt("dest %v: route %d: halt reason %d, %d hops", ds.dest(), len(hs), h.halt, h.hops))
			return nil
		}
		hs, total = append(hs, h), total+h.hops
	}
	*routes = hs
	if ds.cells = d.U64s(total); len(ds.cells) != total {
		return nil
	}
	off := 0
	for i, h := range hs {
		*rt = tracer.Route{Dest: ds.dest(), Source: h.source, Halt: h.halt, Hops: rt.Hops[:0]}
		for k, c := range ds.cells[off : off+h.hops] {
			if err := checkCell(c); err != nil {
				d.Fail(fmt.Errorf("measure: checkpoint dest %v: route %d: hop %d: %w", ds.dest(), i, k, err))
				return nil
			}
			rt.Hops = append(rt.Hops, unpackHop(c))
		}
		memos := &ds.paris
		if h.classic {
			memos = &ds.classic
		}
		fp := rt.Fingerprint()
		at, found := searchMemo(*memos, fp)
		if found {
			d.Fail(errCorrupt("dest %v: route %d collides with an earlier one", ds.dest(), i))
			return nil
		}
		a.remember(ds, memos, at, fp, rt, off, a.analyzeRoute(rt, h.classic, ds))
		off += h.hops
	}
	ds.loopSigs = decodeSigs(d)
	ds.cycleSigs = decodeSigs(d)
	return ds
}

// decodeSigs reads signature spans, strictly ascending by address.
func decodeSigs(d *ckpt.Decoder) []sigSpan {
	n := d.Len(minSig)
	if n == 0 {
		return nil
	}
	sigs := make([]sigSpan, n)
	for i := range sigs {
		sigs[i] = sigSpan{addr: d.Addr(), lastRound: int(d.Int()), rounds: int(d.Int())}
		if i > 0 && sigs[i-1].addr.Compare(sigs[i].addr) >= 0 {
			d.Fail(errCorrupt("signatures not strictly ascending"))
			return nil
		}
	}
	return sigs
}
