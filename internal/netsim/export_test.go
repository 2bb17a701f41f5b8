package netsim

import (
	"time"

	"repro/internal/packet"
	"repro/internal/tracer"
)

// ExchangeV is Exchange plus the RTT the network reports (the virtual
// round-trip time under dynamics, Steps × 500 µs otherwise; zero without a
// response): the one-probe form the tests hold a whole batch against,
// probe for probe.
func (n *Network) ExchangeV(probe []byte) (resp []byte, steps int, rtt time.Duration, ok bool) {
	var out [1]tracer.ProbeResult
	var s [1]int
	n.exchange([][]byte{probe}, out[:], s[:])
	return out[0].Resp, s[0], out[0].RTT, out[0].OK
}

// ExchangeSteps is ExchangeBatch that also reports each probe's node
// traversals in steps[i].
func (n *Network) ExchangeSteps(probes [][]byte, out []tracer.ProbeResult, steps []int) {
	n.exchange(probes, out, steps)
}

// Position is the probe's position in this network: on a flip schedule,
// and in the IP IDs of the boxes that answer it.
func (n *Network) Position(probe []byte) uint32 {
	var hdr packet.IPv4
	payload, err := packet.ParseIPv4Into(probe, &hdr)
	if err != nil {
		panic(err)
	}
	return position(n.seed, &hdr, payload)
}

// WalkPlain turns both walk shortcuts off: every probe walks from the
// source gateway and every reply all the way back. Call it before the first
// exchange.
func (n *Network) WalkPlain() { n.plain = true }

// CountWalks starts a tally of the network's exchanges and returns its
// reader: the steps they reported, and how many of those the forward ladder
// and the return memos skipped. Call it before the first exchange.
func (n *Network) CountWalks() func() (steps, fwd, ret int64) {
	t := n.countWalks()
	return func() (int64, int64, int64) { return t.steps.Load(), t.fwd.Load(), t.ret.Load() }
}

// Handovers counts, by cause, the walks the shortcuts gave back to the plain
// walk under dynamics — the ladder's climb at a flap or another rotation,
// a reply's replay at a flap — and the packets they lost to a brownout.
type Handovers struct{ LadderFlap, LadderRot, LadderBrown, MemoFlap, MemoBrown int64 }

// CountHandovers is CountWalks' sibling: it reads the same tally's
// handovers. Call it before the first exchange.
func (n *Network) CountHandovers() func() Handovers {
	t := n.countWalks()
	return func() Handovers {
		return Handovers{
			t.handed[handLadderFlap].Load(), t.handed[handLadderRot].Load(), t.handed[handLadderBrown].Load(),
			t.handed[handMemoFlap].Load(), t.handed[handMemoBrown].Load(),
		}
	}
}

// countWalks returns the network's tally, starting it on first use.
func (n *Network) countWalks() *walkTally {
	if n.tally == nil {
		n.tally = new(walkTally)
	}
	return n.tally
}
