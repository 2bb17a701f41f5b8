package netsim

import (
	"net/netip"
	"sync"
	"time"

	"repro/internal/tracer"
)

// Transport adapts a Network to the tracer.Transport interface: synchronous
// probe/response exchanges with a synthetic RTT proportional to the number
// of node traversals — or, when the network has a virtual-clock dynamics
// layer installed (Network.SetDynamics), the probe's virtual round-trip
// time.
//
// Transport is safe for concurrent use: exchanges forward in parallel
// (see the package comment's concurrency model), so one Transport can be
// shared by all of a campaign's workers.
type Transport struct {
	net *Network
}

// perHop is the synthetic one-way per-node latency a static network's RTTs
// are derived from: RTT = Steps × perHop.
const perHop = 500 * time.Microsecond

// NewTransport wraps the network for use by tracers.
func NewTransport(n *Network) *Transport {
	return &Transport{net: n}
}

// Exchange is tracer.Exchange over t, for bench/.
func (t *Transport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	return tracer.Exchange(t, probe)
}

// exchPool recycles the []ExchangeResult bridges between the tracer-facing
// and the network-facing batch result types. Response buffers do not live
// here: they are moved into the caller's ProbeResult slots before the
// scratch is pooled, so pooled entries never alias caller memory.
var exchPool = sync.Pool{New: func() any { return new([]ExchangeResult) }}

// ExchangeBatch implements the tracer Transport contract. Each
// out[i].Resp buffer is seeded into the network batch call (which refills it
// with append-truncate) and handed back, so the caller's buffers recycle
// across batches with no copying layer in between.
func (t *Transport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	if len(out) < len(probes) {
		panic("netsim: ExchangeBatch result slice shorter than probe slice")
	}
	sp := exchPool.Get().(*[]ExchangeResult)
	res := *sp
	if cap(res) < len(probes) {
		res = make([]ExchangeResult, len(probes))
	}
	res = res[:len(probes)]
	for i := range probes {
		res[i] = ExchangeResult{Resp: out[i].Resp[:0:cap(out[i].Resp)]}
	}
	t.net.ExchangeBatch(probes, res)
	for i := range probes {
		out[i].Resp = res[i].Resp
		out[i].OK = res[i].OK
		out[i].Err = nil // result slots recycle across batches (Scratch)
		switch {
		case res[i].OK && res[i].RTT > 0:
			out[i].RTT = res[i].RTT
		case res[i].OK:
			out[i].RTT = time.Duration(res[i].Steps) * perHop
		default:
			out[i].RTT = 0
		}
		res[i] = ExchangeResult{}
	}
	*sp = res
	exchPool.Put(sp)
}

// Source implements the tracer Transport contract.
func (t *Transport) Source() netip.Addr { return t.net.Source() }
