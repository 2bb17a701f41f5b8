package measure

import (
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/anomaly"
	"repro/internal/ckpt"
	"repro/internal/tracer"
)

// This file lays Checkpoint and AccState out in the internal/ckpt wire
// format. Fields are written in declaration order: every integer a zigzag
// varint, every slice a count followed by its elements, per-cause maps as
// (cause, count) pairs in ascending cause order — so equal states give equal
// bytes, and a decoded state encodes back to the bytes it came from.
// docs/checkpoint.md has the layout tables; the golden file under testdata/
// pins it.
//
// The min* constants are the fewest bytes one element of each repeated
// structure can occupy; the decoder checks every count against the bytes
// that remain before allocating (ckpt.Decoder.Len).
const (
	minAccState = 22 // 15 integers, 2 maps, 4 address sets, Dests
	minCause    = 2  // cause, count
	minDest     = 6  // address tag, SawLoop, SawCycle, 3 counts
	minRoute    = 4  // Classic, address tag, Halt, hop count
	cellBytes   = 8  // one hop
	minSig      = 3  // address tag, LastRound, Rounds
)

// Encode appends the run body: a campaign checkpoint is exactly this, the
// daemon's continues with its schedule section.
func (ck *Checkpoint) Encode(e *ckpt.Encoder) {
	e.U64(ck.Digest)
	e.Int(int64(ck.NextRound))
	e.Bytes(ck.Transport)
	e.Len(len(ck.Dests))
	for i := range ck.Dests {
		ck.Dests[i].encode(e)
	}
	e.Len(len(ck.Workers))
	for w := range ck.Workers {
		ck.Workers[w].Encode(e)
	}
}

// Decode reads one run body written by Encode into ck, which must be zero.
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
	if n := d.Len(minAccState); n > 0 {
		ck.Workers = make([]AccState, n)
		for w := range ck.Workers {
			ck.Workers[w].Decode(d)
		}
	}
}

// Encode appends the accumulator state to a checkpoint body.
func (st *AccState) Encode(e *ckpt.Encoder) {
	for _, v := range []int{
		st.Routes, st.Reached, st.Responses, st.MidStars,
		st.RoutesWithLoop, st.LoopInstances, st.ParisOnly,
		st.RoutesWithCycle, st.CycleInstances,
		st.Failed, st.Skipped, st.RTTSamples,
	} {
		e.Int(int64(v))
	}
	e.Int(st.RTTSum)
	e.Int(st.RTTMin)
	e.Int(st.RTTMax)
	encodeCauses(e, st.LoopByCause)
	encodeCauses(e, st.CycleByCause)
	encodeAddrs(e, st.Addrs)
	encodeAddrs(e, st.LoopAddrs)
	encodeAddrs(e, st.CycleAddrs)
	encodeAddrs(e, st.SkippedDests)
	e.Len(len(st.Dests))
	for i := range st.Dests {
		dc := &st.Dests[i]
		e.Addr(dc.Dest)
		e.Bool(dc.SawLoop)
		e.Bool(dc.SawCycle)
		e.Len(len(dc.Routes))
		cells := 0
		for _, rc := range dc.Routes {
			if rc.Hops < 0 {
				e.Fail(fmt.Errorf("measure: dest %v: route of %d hops", dc.Dest, rc.Hops))
				return
			}
			e.Bool(rc.Classic)
			e.Addr(rc.Source)
			e.Int(int64(rc.Halt))
			e.Len(rc.Hops)
			cells += rc.Hops
		}
		if cells != len(dc.Cells) {
			e.Fail(fmt.Errorf("measure: dest %v: routes of %d hops over %d cells", dc.Dest, cells, len(dc.Cells)))
			return
		}
		e.U64s(dc.Cells)
		encodeSigs(e, dc.LoopSigs)
		encodeSigs(e, dc.CycleSigs)
	}
}

// Decode reads one accumulator state written by Encode into st, which must
// be zero.
func (st *AccState) Decode(d *ckpt.Decoder) {
	for _, p := range []*int{
		&st.Routes, &st.Reached, &st.Responses, &st.MidStars,
		&st.RoutesWithLoop, &st.LoopInstances, &st.ParisOnly,
		&st.RoutesWithCycle, &st.CycleInstances,
		&st.Failed, &st.Skipped, &st.RTTSamples,
	} {
		*p = int(d.Int())
	}
	st.RTTSum = d.Int()
	st.RTTMin = d.Int()
	st.RTTMax = d.Int()
	st.LoopByCause = decodeCauses(d)
	st.CycleByCause = decodeCauses(d)
	st.Addrs = decodeAddrs(d)
	st.LoopAddrs = decodeAddrs(d)
	st.CycleAddrs = decodeAddrs(d)
	st.SkippedDests = decodeAddrs(d)
	n := d.Len(minDest)
	if n == 0 {
		return
	}
	st.Dests = make([]DestCheckpoint, n)
	for i := range st.Dests {
		dc := &st.Dests[i]
		dc.Dest = d.Addr()
		dc.SawLoop = d.Bool()
		dc.SawCycle = d.Bool()
		if nr := d.Len(minRoute); nr > 0 {
			dc.Routes = make([]RouteCheckpoint, nr)
			cells := 0
			for j := range dc.Routes {
				dc.Routes[j] = RouteCheckpoint{Classic: d.Bool(), Source: d.Addr(), Halt: tracer.HaltReason(d.Int()), Hops: d.Len(cellBytes)}
				cells += dc.Routes[j].Hops
			}
			dc.Cells = d.U64s(cells)
		}
		dc.LoopSigs = decodeSigs(d)
		dc.CycleSigs = decodeSigs(d)
	}
}

func encodeAddrs(e *ckpt.Encoder, as []netip.Addr) {
	e.Len(len(as))
	for _, a := range as {
		e.Addr(a)
	}
}

func decodeAddrs(d *ckpt.Decoder) []netip.Addr {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	as := make([]netip.Addr, n)
	for i := range as {
		as[i] = d.Addr()
	}
	return as
}

func encodeCauses(e *ckpt.Encoder, m map[anomaly.Cause]int) {
	causes := make([]anomaly.Cause, 0, len(m))
	for c := range m {
		causes = append(causes, c)
	}
	slices.Sort(causes)
	e.Len(len(causes))
	for _, c := range causes {
		e.Int(int64(c))
		e.Int(int64(m[c]))
	}
}

// decodeCauses always returns a map, as Accumulator.State does. Causes out
// of ascending order are refused: they would not encode back to the same
// bytes.
func decodeCauses(d *ckpt.Decoder) map[anomaly.Cause]int {
	n := d.Len(minCause)
	m := make(map[anomaly.Cause]int, n)
	var prev anomaly.Cause
	for i := 0; i < n; i++ {
		c := anomaly.Cause(d.Int())
		if i > 0 && c <= prev {
			d.Fail(fmt.Errorf("%w: cause %d after cause %d", ckpt.ErrCorrupt, c, prev))
			break
		}
		m[c], prev = int(d.Int()), c
	}
	return m
}

func encodeSigs(e *ckpt.Encoder, sigs []SigCheckpoint) {
	e.Len(len(sigs))
	for _, sg := range sigs {
		e.Addr(sg.Addr)
		e.Int(int64(sg.LastRound))
		e.Int(int64(sg.Rounds))
	}
}

func decodeSigs(d *ckpt.Decoder) []SigCheckpoint {
	n := d.Len(minSig)
	if n == 0 {
		return nil
	}
	sigs := make([]SigCheckpoint, n)
	for i := range sigs {
		sigs[i] = SigCheckpoint{Addr: d.Addr(), LastRound: int(d.Int()), Rounds: int(d.Int())}
	}
	return sigs
}
