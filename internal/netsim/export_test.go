package netsim

import (
	"time"

	"repro/internal/packet"
)

// ExchangeV is Exchange plus the probe's virtual round-trip time
// (ExchangeResult.RTT; zero without a dynamics layer or a response): the
// one-probe form the tests hold a whole batch against, probe for probe.
func (n *Network) ExchangeV(probe []byte) (resp []byte, steps int, rtt time.Duration, ok bool) {
	var out [1]ExchangeResult
	n.ExchangeBatch([][]byte{probe}, out[:])
	return out[0].Resp, out[0].Steps, out[0].RTT, out[0].OK
}

// FlipPosition is the probe's position on a flip schedule in this network.
func (n *Network) FlipPosition(probe []byte) uint32 {
	var hdr packet.IPv4
	payload, err := packet.ParseIPv4Into(probe, &hdr)
	if err != nil {
		panic(err)
	}
	return flipPosition(n.seed, &hdr, payload)
}
