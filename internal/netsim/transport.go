package netsim

import (
	"net/netip"
	"time"

	"repro/internal/tracer"
)

// Transport adapts a Network to the tracer.Transport interface. It adds
// nothing to Network.ExchangeBatch: it stays for bench/, which asserts
// tracer.BatchTransport on a scenario's transport and calls its Exchange.
//
// Transport is safe for concurrent use: exchanges forward in parallel
// (see the package comment's concurrency model), so one Transport can be
// shared by all of a campaign's workers.
type Transport struct {
	net *Network
}

// NewTransport wraps the network for use by tracers.
func NewTransport(n *Network) *Transport { return &Transport{net: n} }

// Exchange is tracer.Exchange over t, for bench/.
func (t *Transport) Exchange(probe []byte) ([]byte, time.Duration, bool) {
	return tracer.Exchange(t, probe)
}

// ExchangeBatch implements the tracer Transport contract.
func (t *Transport) ExchangeBatch(probes [][]byte, out []tracer.ProbeResult) {
	t.net.ExchangeBatch(probes, out)
}

// Source implements the tracer Transport contract.
func (t *Transport) Source() netip.Addr { return t.net.Source() }
