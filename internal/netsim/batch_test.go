package netsim

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/packet"
)

// batchTestNet is testNet plus randomized behaviour (a probabilistic drop
// fault on r2), so the equality tests below cover the per-probe RNG seeding:
// a probe draws the same stream however and whenever it is exchanged.
func batchTestNet(t *testing.T) (*Network, []*Router, *Host) {
	n, rs, h := testNet(t)
	rs[2].SetFaults(Faults{DropProbability: 0.3})
	return n, rs, h
}

// ladderProbes builds a TTL ladder of UDP probes toward the host.
func ladderProbes(t *testing.T, n *Network, dst netip.Addr, maxTTL int) [][]byte {
	t.Helper()
	probes := make([][]byte, 0, maxTTL)
	for ttl := 1; ttl <= maxTTL; ttl++ {
		probes = append(probes, udpProbe(t, n, dst, uint8(ttl), 10007, 20011))
	}
	return probes
}

// withoutIPID is a response with its IP ID and header checksum zeroed: the
// two bytes a responding box's arrival-order counter writes, and the one
// observable the determinism rule leaves out.
func withoutIPID(resp []byte) []byte {
	r := append([]byte(nil), resp...)
	if len(r) >= 12 {
		r[4], r[5], r[10], r[11] = 0, 0, 0, 0
	}
	return r
}

// TestExchangeBatchMatchesSequential drives two identical networks — one
// probe by probe through Exchange, the other through a single ExchangeBatch
// — and requires byte-identical responses, steps, and ok flags, including
// the RNG-driven drops. The same probes exchanged in reverse order and
// spread across four goroutines must give the same results too, IP IDs
// aside: every draw is keyed by the probe, not by when it arrives.
func TestExchangeBatchMatchesSequential(t *testing.T) {
	seqNet, _, host := batchTestNet(t)
	batNet, _, _ := batchTestNet(t)
	probes := ladderProbes(t, seqNet, host.Addr, 8)
	for ttl := range 8 { // a second attempt per TTL: a fresh IP ID draws afresh
		dgram, err := packet.MarshalUDPInto(nil, seqNet.Source(), host.Addr, &packet.UDP{SrcPort: 10007, DstPort: 20011}, make([]byte, 12))
		if err != nil {
			t.Fatal(err)
		}
		p, err := (&packet.IPv4{TTL: uint8(1 + ttl), ID: 2, Protocol: packet.ProtoUDP, Src: seqNet.Source(), Dst: host.Addr}).MarshalInto(nil, dgram)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, p)
	}

	out := make([]ExchangeResult, len(probes))
	batNet.ExchangeBatch(probes, out)

	sawDrop := false
	for i, p := range probes {
		resp, steps, ok := seqNet.Exchange(p)
		if ok != out[i].OK || steps != out[i].Steps {
			t.Errorf("probe %d: batch (ok=%v steps=%d) vs sequential (ok=%v steps=%d)",
				i, out[i].OK, out[i].Steps, ok, steps)
		}
		if ok && !bytes.Equal(resp, out[i].Resp) {
			t.Errorf("probe %d: batch response differs from sequential\nbatch: %x\nseq:   %x",
				i, out[i].Resp, resp)
		}
		if !ok {
			sawDrop = true
		}
	}
	if !sawDrop {
		t.Fatal("no probe was dropped; the RNG-equality check is degenerate")
	}
	if got, want := batNet.ProbeCount(), seqNet.ProbeCount(); got != want {
		t.Errorf("batch network counted %d probes, sequential %d", got, want)
	}

	// Reversed, one exchange each, on a fresh network.
	revNet, _, _ := batchTestNet(t)
	rev := make([]ExchangeResult, len(probes))
	for i := len(probes) - 1; i >= 0; i-- {
		revNet.ExchangeBatch(probes[i:i+1], rev[i:i+1])
	}
	// Four goroutines, each a strided batch, on another.
	parNet, _, _ := batchTestNet(t)
	par := make([]ExchangeResult, len(probes))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine [][]byte
			for i := g; i < len(probes); i += 4 {
				mine = append(mine, probes[i])
			}
			res := make([]ExchangeResult, len(mine))
			parNet.ExchangeBatch(mine, res)
			for k, i := 0, g; i < len(probes); k, i = k+1, i+4 {
				par[i] = res[k]
			}
		}()
	}
	wg.Wait()
	for name, got := range map[string][]ExchangeResult{"reversed": rev, "4 goroutines": par} {
		for i := range probes {
			if got[i].OK != out[i].OK || got[i].Steps != out[i].Steps ||
				!bytes.Equal(withoutIPID(got[i].Resp), withoutIPID(out[i].Resp)) {
				t.Errorf("%s: probe %d: ok=%v steps=%d resp %x, forward ok=%v steps=%d resp %x",
					name, i, got[i].OK, got[i].Steps, got[i].Resp, out[i].OK, out[i].Steps, out[i].Resp)
			}
		}
	}
}

// TestExchangeBatchReusesResultBuffers checks the ownership contract: a
// second batch through the same result slice refills the same backing
// arrays, and the results are again correct.
func TestExchangeBatchReusesResultBuffers(t *testing.T) {
	n, _, host := testNet(t)
	probes := ladderProbes(t, n, host.Addr, 5)
	out := make([]ExchangeResult, len(probes))
	n.ExchangeBatch(probes, out)

	first := make([][]byte, len(out))
	caps := make([]int, len(out))
	for i := range out {
		first[i] = append([]byte(nil), out[i].Resp...)
		caps[i] = cap(out[i].Resp)
	}
	n.ExchangeBatch(probes, out)
	for i := range out {
		if !out[i].OK {
			t.Fatalf("probe %d: second batch got no response", i)
		}
		// Deterministic topology, but the responding boxes advance their
		// IP ID counters between batches: everything but the IP ID and
		// its checksum must match, and the buffer must be recycled.
		if len(out[i].Resp) != len(first[i]) {
			t.Errorf("probe %d: second batch response length %d, first %d", i, len(out[i].Resp), len(first[i]))
		}
		if cap(out[i].Resp) != caps[i] {
			t.Errorf("probe %d: response buffer reallocated (cap %d -> %d)", i, caps[i], cap(out[i].Resp))
		}
	}
}
