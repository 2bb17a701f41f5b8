package netsim_test

// Mixed-shard batch tests for ShardedTransport.ExchangeBatch (external test
// package: the sharded scenarios come from topo, which imports netsim).

import (
	"bytes"
	"net/netip"
	"testing"

	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/tracer"
)

// shardedScenario generates a 2-shard topology and returns its transport
// plus one destination per shard.
func shardedScenario(t *testing.T) (tracer.Transport, []netip.Addr) {
	t.Helper()
	cfg := topo.DefaultGenConfig()
	cfg.Destinations = 24
	cfg.Shards = 2
	sc := topo.Generate(cfg)
	bt := sc.Transport()
	var d0, d1 netip.Addr
	for _, d := range sc.Dests {
		if sc.ShardOf[d] == 0 && !d0.IsValid() {
			d0 = d
		}
		if sc.ShardOf[d] == 1 && !d1.IsValid() {
			d1 = d
		}
	}
	if !d0.IsValid() || !d1.IsValid() {
		t.Fatal("generated scenario has no destination on one of the shards")
	}
	return bt, []netip.Addr{d0, d1}
}

func shardProbe(t *testing.T, src, dst netip.Addr, ttl uint8) []byte {
	t.Helper()
	dgram, err := packet.MarshalUDPInto(nil, src, dst, &packet.UDP{SrcPort: 10007, DstPort: 20011}, make([]byte, 12))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := (&packet.IPv4{TTL: ttl, Protocol: packet.ProtoUDP, Src: src, Dst: dst}).MarshalInto(nil, dgram)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestShardedExchangeBatchMixedShards submits one batch interleaving probes
// toward destinations on two different shards — forcing the grouping slow
// path, which no in-repo caller exercises (a tracer ladder targets one
// destination, hence one shard) — and requires each probe's result to be
// byte-identical to a sequential Exchange on a fresh identical scenario.
func TestShardedExchangeBatchMixedShards(t *testing.T) {
	bt, dests := shardedScenario(t)
	seqTP, _ := shardedScenario(t) // fresh identical state for the baseline

	src := bt.Source()
	var probes [][]byte
	for ttl := uint8(2); ttl <= 9; ttl++ {
		// Interleave shards probe by probe.
		probes = append(probes, shardProbe(t, src, dests[ttl%2], ttl))
	}
	out := make([]tracer.ProbeResult, len(probes))
	bt.ExchangeBatch(probes, out)

	for i, p := range probes {
		resp, rtt, ok := tracer.Exchange(seqTP, p)
		if ok != out[i].OK || rtt != out[i].RTT {
			t.Errorf("probe %d (dest %v): batch (ok=%v rtt=%v) vs sequential (ok=%v rtt=%v)",
				i, dests[i%2], out[i].OK, out[i].RTT, ok, rtt)
			continue
		}
		if ok && !bytes.Equal(resp, out[i].Resp) {
			t.Errorf("probe %d (dest %v): mixed-shard batch response differs from sequential\nbatch: %x\nseq:   %x",
				i, dests[i%2], out[i].Resp, resp)
		}
	}

	// Second mixed batch through the same transport: the pooled grouping
	// scratch is recycled; results must still line up per probe.
	out2 := make([]tracer.ProbeResult, len(probes))
	bt.ExchangeBatch(probes, out2)
	for i := range out2 {
		if out2[i].OK != out[i].OK {
			t.Errorf("probe %d: second mixed batch ok=%v, first %v", i, out2[i].OK, out[i].OK)
		}
	}
}
